"""OptiAware: OptiLog applied to Aware (§5).

OptiAware augments Aware with OptiLog's misbehavior and suspicion
monitoring.  Per §5, a protocol integration must provide exactly two
things: a ``score`` function and a procedure estimating ``d_rnd`` and
``d_m`` -- both come from :class:`repro.core.timeouts.PbftTimeouts`.  The
search then simply avoids replicas outside the candidate set.

This class owns one replica's OptiLog pipeline configured for Aware.  It
is used standalone by the analytical experiments and embedded in the PBFT
engine (:mod:`repro.consensus.pbft`) for the runtime experiment (Fig. 7).
"""

from __future__ import annotations

import math
import random
from typing import Any, Callable, FrozenSet, Optional


from repro.aware.score import weight_config_round_duration
from repro.aware.search import exhaustive_weight_search
from repro.aware.weights import WeightConfiguration, WheatParameters
from repro.core.pipeline import OptiLogPipeline, PipelineSettings
from repro.core.records import Configuration
from repro.core.roundplan import RoundPlan
from repro.core.timeouts import PbftTimeouts
from repro.crypto.signatures import KeyRegistry


class OptiAware:
    """One replica's OptiAware stack: Aware scoring + OptiLog pipeline.

    Parameters
    ----------
    use_suspicions:
        With False the candidate set is all replicas and the stack
        degrades to plain Aware (the baseline in Fig. 7): latency-driven
        optimization without accountability.
    """

    def __init__(
        self,
        replica_id: int,
        n: int,
        f: int,
        registry: Optional[KeyRegistry] = None,
        settings: Optional[PipelineSettings] = None,
        propose: Optional[Callable[[Any], None]] = None,
        use_suspicions: bool = True,
        on_reconfigure: Optional[Callable] = None,
    ):
        self.n = n
        self.f = f
        self.parameters = WheatParameters(n, f)
        self.use_suspicions = use_suspicions
        settings = settings or PipelineSettings(n=n, f=f)
        self.pipeline = OptiLogPipeline(
            replica_id, settings, registry=registry, propose=propose
        )
        self.pipeline.attach_config(
            search=self._search,
            score=self._score,
            validator=self._validate,
            on_reconfigure=on_reconfigure,
        )

    # ------------------------------------------------------------------
    # OptiLog hooks (the two §5 requirements)
    # ------------------------------------------------------------------
    def _score(self, configuration: Configuration) -> float:
        if not isinstance(configuration, WeightConfiguration):
            return math.inf
        return weight_config_round_duration(
            self.pipeline.latency_matrix, configuration
        )

    def _search(
        self, candidates: FrozenSet[int], u: int, rng: random.Random
    ) -> Optional[WeightConfiguration]:
        pool = candidates if self.use_suspicions else frozenset(range(self.n))
        return exhaustive_weight_search(
            self.pipeline.latency_matrix, self.n, self.f, candidates=pool
        )

    def _validate(self, configuration: Configuration) -> bool:
        if not isinstance(configuration, WeightConfiguration):
            return False
        return configuration.n == self.n and configuration.f == self.f

    # ------------------------------------------------------------------
    # Timeout derivation for the suspicion sensor
    # ------------------------------------------------------------------
    def timeouts_for(self, configuration: WeightConfiguration) -> PbftTimeouts:
        """``d_m``/``d_rnd`` provider for the active configuration."""
        return PbftTimeouts(
            self.pipeline.latency_matrix,
            leader=configuration.leader,
            weights=configuration.weights(),
            quorum_weight=configuration.quorum_weight,
        )

    def round_plan(
        self, configuration: WeightConfiguration
    ) -> Optional[RoundPlan]:
        """This replica's compiled round expectations under
        ``configuration`` (memoised per latency epoch on the pipeline;
        ``None`` while the latency matrix is incomplete)."""
        return self.pipeline.round_plan(configuration, self._compile_round_plan)

    def _compile_round_plan(self, configuration: WeightConfiguration) -> RoundPlan:
        return self.timeouts_for(configuration).round_plan(
            self.pipeline.replica_id, self.pipeline.settings.delta
        )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @property
    def candidates(self) -> FrozenSet[int]:
        return self.pipeline.candidates

    @property
    def current_configuration(self) -> Optional[WeightConfiguration]:
        monitor = self.pipeline.config_monitor
        return monitor.current if monitor is not None else None

    def default_configuration(self) -> WeightConfiguration:
        """Initial static configuration: leader 0, Vmax on lowest ids
        (what BFT-SMaRt ships before any optimization)."""
        return WeightConfiguration(
            n=self.n,
            f=self.f,
            leader=0,
            vmax_replicas=frozenset(range(self.parameters.vmax_count)),
        )
