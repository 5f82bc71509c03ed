"""Configuration search for Aware/OptiAware.

Two strategies, both restricted to a candidate set:

* :func:`exhaustive_weight_search` -- for every candidate leader, greedily
  assign Vmax to the replicas whose Writes reach the rest fastest, then
  keep the best-scoring assignment.  Deterministic; practical for
  PBFT-scale systems (n ≤ ~100).
* :func:`annealed_weight_search` -- simulated annealing over
  (leader, Vmax) with candidate-respecting swap mutations, for larger
  search spaces and for the non-deterministic search mode of §4.2.4.

Both run on the vectorized score path
(:func:`repro.core.timeouts.weighted_round_duration`); the annealer
additionally keeps its (leader, Vmax) state incrementally -- the weight
vector is updated in place per mutation and the Vmax membership lists
are maintained sorted, so no per-mutation ``WeightConfiguration``,
``weights()`` dict or ``sorted(vmax)`` allocation survives on the hot
path.  Search results are bit-identical to the full-scoring reference
(``annealed_weight_search_full`` in ``tests/oracles.py``) under the same
seed.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from repro.aware.weights import WeightConfiguration, WheatParameters
from repro.core.timeouts import weighted_round_duration
from repro.optimize.annealing import (
    AnnealingSchedule,
    IncrementalSearch,
    anneal_incremental,
)


def _centrality_order(latency: np.ndarray, members: List[int]) -> List[int]:
    """Members sorted by mean link latency to the others (most central
    first); deterministic tiebreak by id."""
    count = len(members)
    if count <= 1:
        return list(members)
    index = np.fromiter(members, dtype=np.intp, count=count)
    block = np.asarray(latency, dtype=float)[np.ix_(index, index)]
    # Row-major off-diagonal view: row j holds exactly the latencies the
    # scalar loop would collect for member j, in the same order.
    off_diagonal = block[~np.eye(count, dtype=bool)].reshape(count, count - 1)
    means = off_diagonal.mean(axis=1)
    ranked = sorted(
        range(count), key=lambda position: (float(means[position]), members[position])
    )
    return [members[position] for position in ranked]


def exhaustive_weight_search(
    latency: np.ndarray,
    n: int,
    f: int,
    candidates: Optional[FrozenSet[int]] = None,
) -> Optional[WeightConfiguration]:
    """Best configuration over all candidate leaders with greedy Vmax.

    For each leader, Vmax goes to the ``2f`` candidates closest (mean
    latency) to the whole membership -- the replicas whose votes complete
    quorums earliest.  Returns None if fewer candidates than special
    roles exist.
    """
    params = WheatParameters(n, f)
    pool = sorted(candidates) if candidates is not None else list(range(n))
    if len(pool) < params.vmax_count or not pool:
        return None
    ordered = _centrality_order(latency, pool)
    # The greedy Vmax set is leader-independent: hoisted out of the
    # per-leader loop, along with its weight vector.
    vmax = frozenset(ordered[: params.vmax_count])
    weight_vector = np.full(n, params.vmin, dtype=float)
    weight_vector[sorted(vmax)] = params.vmax
    quorum_weight = params.quorum_weight
    best_leader: Optional[int] = None
    best_score = math.inf
    for leader in pool:
        score = weighted_round_duration(latency, leader, weight_vector, quorum_weight)
        if score < best_score:
            best_leader = leader
            best_score = score
    if best_leader is None:
        return None
    return WeightConfiguration(n=n, f=f, leader=best_leader, vmax_replicas=vmax)


class _WeightAnnealState(IncrementalSearch[WeightConfiguration]):
    """Incremental (leader, Vmax) state for :func:`annealed_weight_search`.

    The weight vector mutates in place (two entries per Vmax swap) and is
    restored on reject; the sorted Vmax/outside membership lists the
    mutation draws sample from are maintained by bisection on accept, so
    the per-iteration cost is the vectorized score plus O(|Vmax|) list
    surgery -- no re-sorting, no configuration objects.
    """

    def __init__(
        self,
        latency: np.ndarray,
        n: int,
        f: int,
        params: WheatParameters,
        pool: List[int],
        leader: int,
        vmax: FrozenSet[int],
    ):
        self.latency = latency
        self.n = n
        self.f = f
        self.pool = pool
        self.quorum_weight = params.quorum_weight
        self.vmax_value = params.vmax
        self.vmin_value = params.vmin
        self.leader = leader
        self.vmax_sorted = sorted(vmax)
        vmax_set = set(vmax)
        self.outside = [replica for replica in pool if replica not in vmax_set]
        vector = np.full(n, params.vmin, dtype=float)
        vector[self.vmax_sorted] = params.vmax
        self.weight_vector = vector

    def initial_score(self) -> float:
        return weighted_round_duration(
            self.latency, self.leader, self.weight_vector, self.quorum_weight
        )

    def propose(self, rng: random.Random) -> Optional[Tuple]:
        if rng.random() < 0.3:
            return ("leader", rng.choice(self.pool))
        if not self.outside:
            return None  # candidate == current (the full path re-scores it)
        removed = rng.choice(self.vmax_sorted)
        added = rng.choice(self.outside)
        return ("swap", removed, added)

    def delta_score(self, mutation: Tuple) -> float:
        if mutation[0] == "leader":
            return weighted_round_duration(
                self.latency, mutation[1], self.weight_vector, self.quorum_weight
            )
        _, removed, added = mutation
        vector = self.weight_vector
        vector[removed] = self.vmin_value
        vector[added] = self.vmax_value
        return weighted_round_duration(
            self.latency, self.leader, vector, self.quorum_weight
        )

    def apply(self, mutation: Tuple) -> None:
        if mutation[0] == "leader":
            self.leader = mutation[1]
            return
        _, removed, added = mutation
        self.vmax_sorted.pop(bisect_left(self.vmax_sorted, removed))
        insort(self.vmax_sorted, added)
        self.outside.pop(bisect_left(self.outside, added))
        insort(self.outside, removed)

    def revert(self, mutation: Tuple) -> None:
        if mutation[0] == "swap":
            _, removed, added = mutation
            vector = self.weight_vector
            vector[removed] = self.vmax_value
            vector[added] = self.vmin_value

    def snapshot(self) -> WeightConfiguration:
        return WeightConfiguration(
            n=self.n,
            f=self.f,
            leader=self.leader,
            vmax_replicas=frozenset(self.vmax_sorted),
        )


def annealed_weight_search(
    latency: np.ndarray,
    n: int,
    f: int,
    candidates: Optional[FrozenSet[int]] = None,
    rng: Optional[random.Random] = None,
    schedule: Optional[AnnealingSchedule] = None,
) -> Optional[WeightConfiguration]:
    """Simulated-annealing search over (leader, Vmax) assignments.

    Mutations swap a Vmax holder with a non-holder, or move the leader
    role; special roles are only ever assigned within ``candidates``
    (§4.2.4's mutate rule).
    """
    params = WheatParameters(n, f)
    rng = rng or random.Random(0)
    pool = sorted(candidates) if candidates is not None else list(range(n))
    if len(pool) < params.vmax_count:
        return None

    schedule = schedule or AnnealingSchedule(iterations=2000, initial_temperature=0.05)
    initial_vmax = frozenset(rng.sample(pool, params.vmax_count))
    initial_leader = rng.choice(pool)

    state = _WeightAnnealState(
        latency, n, f, params, pool, initial_leader, initial_vmax
    )
    return anneal_incremental(state, rng, schedule).best_state
