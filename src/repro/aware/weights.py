"""Wheat's weighted-voting scheme (Sousa & Bessani [57], used by Aware).

With ``n = 3f + 1 + Δ`` replicas, Wheat gives weight ``Vmax = 1 + Δ/f`` to
``2f`` replicas and ``Vmin = 1`` to the remaining ``n - 2f``.  A quorum
must reach weight ``Qv = 2(f + Δ) + 1``; two such quorums always intersect
in at least one correct replica (the safety property tests verify this),
yet in the best case a quorum is formed by the 2f ``Vmax`` replicas plus a
single ``Vmin`` replica -- fewer replies than the unweighted
``⌈(n + f + 1) / 2⌉``, which is the latency win when ``n > 3f + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet

import numpy as np

from repro.core.records import RECORD_HEADER_SIZE, Configuration


@dataclass(frozen=True)
class WheatParameters:
    """Derived weighting constants for an (n, f) system."""

    n: int
    f: int

    def __post_init__(self):
        if self.n < 3 * self.f + 1:
            raise ValueError(f"n={self.n} cannot tolerate f={self.f}")
        if self.f < 1:
            raise ValueError("f must be at least 1")

    @property
    def delta_replicas(self) -> int:
        """Δ: spare replicas beyond the 3f+1 minimum."""
        return self.n - (3 * self.f + 1)

    @property
    def vmax(self) -> float:
        return 1.0 + self.delta_replicas / self.f

    @property
    def vmin(self) -> float:
        return 1.0

    @property
    def vmax_count(self) -> int:
        """Number of replicas holding Vmax (always 2f)."""
        return 2 * self.f

    @property
    def quorum_weight(self) -> float:
        """Qv = 2(f + Δ) + 1."""
        return 2 * (self.f + self.delta_replicas) + 1


@dataclass(frozen=True)
class WeightConfiguration(Configuration):
    """An Aware configuration: the leader plus the Vmax holders (§5).

    Special roles are the leader and the ``Vmax`` replicas: those are the
    roles OptiAware only assigns to candidate replicas.
    """

    n: int
    f: int
    leader: int
    vmax_replicas: FrozenSet[int]

    def __post_init__(self):
        params = self.parameters  # validates n, f
        if len(self.vmax_replicas) != params.vmax_count:
            raise ValueError(
                f"need exactly {params.vmax_count} Vmax replicas, "
                f"got {len(self.vmax_replicas)}"
            )
        if not all(0 <= replica < self.n for replica in self.vmax_replicas):
            raise ValueError("Vmax replica out of range")
        if not 0 <= self.leader < self.n:
            raise ValueError("leader out of range")

    @property
    def parameters(self) -> WheatParameters:
        # Cached on the (frozen, immutable) instance: the score and search
        # layers read it per evaluation, and building a fresh validated
        # WheatParameters there is pure overhead.
        cached = self.__dict__.get("_parameters")
        if cached is None:
            cached = WheatParameters(self.n, self.f)
            object.__setattr__(self, "_parameters", cached)
        return cached

    def weights(self) -> Dict[int, float]:
        params = self.parameters
        return {
            replica: params.vmax if replica in self.vmax_replicas else params.vmin
            for replica in range(self.n)
        }

    def weight_vector(self) -> np.ndarray:
        """Weights as a dense vector indexed by replica id.

        Cached on the immutable instance; the vectorized score path
        (:func:`repro.core.timeouts.weighted_round_duration`) reads this
        instead of building the ``weights()`` dict per evaluation.
        """
        vector = self.__dict__.get("_weight_vector")
        if vector is None:
            params = self.parameters
            vector = np.full(self.n, params.vmin, dtype=float)
            vector[sorted(self.vmax_replicas)] = params.vmax
            object.__setattr__(self, "_weight_vector", vector)
        return vector

    @property
    def quorum_weight(self) -> float:
        cached = self.__dict__.get("_quorum_weight")
        if cached is None:
            cached = self.parameters.quorum_weight
            object.__setattr__(self, "_quorum_weight", cached)
        return cached

    # -- Configuration interface ----------------------------------------
    def special_replicas(self) -> FrozenSet[int]:
        return self.vmax_replicas | {self.leader}

    def participants(self) -> FrozenSet[int]:
        return frozenset(range(self.n))

    @property
    def wire_size(self) -> int:
        # leader id + Vmax bitmap-ish list.
        return RECORD_HEADER_SIZE + 8 + 8 * len(self.vmax_replicas)
