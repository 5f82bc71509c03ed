"""Configuration search for Aware/OptiAware.

:func:`exhaustive_weight_search` -- for every candidate leader, greedily
assign Vmax to the replicas whose Writes reach the rest fastest, then
keep the best-scoring assignment.  Deterministic; practical for
PBFT-scale systems (n ≤ ~100), and the only search the engines run.  It
scores on the vectorized path
(:func:`repro.core.timeouts.weighted_round_duration`).
"""

from __future__ import annotations

import math
from typing import FrozenSet, List, Optional

import numpy as np

from repro.aware.weights import WeightConfiguration, WheatParameters
from repro.core.timeouts import weighted_round_duration


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
