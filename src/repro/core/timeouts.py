"""Timeout derivation for clique protocols (TR1-TR3, Appendix C).

The SuspicionSensor needs, for every expected message ``m``, the delay
``d_m`` from the round's proposal timestamp to ``m``'s arrival, and the
expected round duration ``d_rnd``.  Appendix C gives three requirements:

* TR1: a message sent by the leader right after proposing has
  ``d_m = L(L, A)``;
* TR2: a message from A to B sent on receipt of an earlier message ``m'``
  has ``d_m = d_{m'} + L(A, B)``;
* TR3: ``d_rnd`` equals ``d_m`` of some message to the leader.

This module implements the PBFT/Aware instantiation (Example C.1):
Propose → Write (all-to-all) → Accept (all-to-all), with weighted quorums.
``PbftTimeouts.round_duration`` *is* Aware's score function -- "the d_rnd
developed above is the same as the result of the score function defined by
Aware."

Tree timeouts (Lemma 6) live in :mod:`repro.tree.score`.

Phases (used by suspicion filtering): 0 proposal timestamp, 1 propose,
2 write, 3 accept.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

import numpy as np

from repro.core.roundplan import RoundPlan

PHASE_PROPOSE = 1
PHASE_WRITE = 2
PHASE_ACCEPT = 3


def quorum_formation_times(
    arrivals: np.ndarray, weights: np.ndarray, threshold: float
) -> np.ndarray:
    """Earliest time at which arrived messages reach ``threshold`` weight,
    one result per column.

    This is the "min over quorums of max arrival" of Example C.1: sorting
    arrivals ascending and accumulating weight gives the fastest quorum.
    ``arrivals`` is a (senders × receivers) matrix; ``weights`` a vector
    over senders.  Per column: stable-sort by arrival (ties fall back to
    sender id), accumulate weights in that order -- ``cumsum`` adds
    sequentially, so every partial sum is bit-identical to a scalar loop
    (``tests/oracles.py`` keeps one) -- and take the first finite arrival
    at which the accumulated weight reaches ``threshold``; ``inf`` when
    even all messages are too light.
    """
    order = np.argsort(arrivals, axis=0, kind="stable")
    times = np.take_along_axis(arrivals, order, axis=0)
    cumulative = np.cumsum(weights[order], axis=0)
    reached = (cumulative >= threshold) & np.isfinite(times)
    formed = reached.any(axis=0)
    first = reached.argmax(axis=0)
    columns = np.arange(arrivals.shape[1])
    return np.where(formed, times[first, columns], np.inf)


def weighted_round_duration(
    latency: np.ndarray,
    leader: int,
    weight_vector: np.ndarray,
    quorum_weight: float,
) -> float:
    """``d_rnd`` for a (leader, weight vector) pair, fully vectorized.

    The optimizer's innermost call: Aware/OptiAware score thousands of
    candidate configurations per search, so this avoids building a
    :class:`PbftTimeouts` (and its per-replica dicts) per evaluation.
    Bit-identical to ``PbftTimeouts(...).round_duration()`` -- both run
    the same operations through :func:`quorum_formation_times`.
    """
    propose = latency[leader]
    write = propose[:, None] + latency
    accept_send = quorum_formation_times(write, weight_vector, quorum_weight)
    arrivals = accept_send + latency[:, leader]
    return float(
        quorum_formation_times(arrivals[:, None], weight_vector, quorum_weight)[0]
    )


class PbftTimeouts:
    """Expected message delays for one PBFT/Aware configuration.

    Parameters
    ----------
    latency:
        Symmetric link-latency matrix (seconds, one-way per hop).
    leader:
        The round's leader.
    weights:
        Voting weights per replica (Wheat/Aware); uniform for plain PBFT.
    quorum_weight:
        Weight a quorum must reach (``2(f+Δ)+1`` for Aware, ``2f+1``
        unweighted).
    """

    def __init__(
        self,
        latency: np.ndarray,
        leader: int,
        weights: Mapping[int, float],
        quorum_weight: float,
    ):
        self.latency = latency
        self.leader = leader
        self.n = latency.shape[0]
        self.weights = dict(weights)
        self.quorum_weight = quorum_weight
        self._accept_send: Optional[np.ndarray] = None
        self._weight_vector: Optional[np.ndarray] = None

    def _weights_array(self) -> np.ndarray:
        if self._weight_vector is None:
            weights = self.weights
            self._weight_vector = np.fromiter(
                (weights.get(replica, 0.0) for replica in range(self.n)),
                dtype=float,
                count=self.n,
            )
        return self._weight_vector

    # -- building blocks ------------------------------------------------
    def propose_arrival(self, receiver: int) -> float:
        """TR1: the leader's Propose reaches ``receiver`` at L(L, A)."""
        return float(self.latency[self.leader, receiver])

    def accept_send_time(self, sender: int) -> float:
        """When ``sender`` has a Write quorum and can send its Accept.

        All senders are computed in one vectorized pass: the Write matrix
        ``W[s, r] = propose(s) + L(s, r)`` column-scanned by
        :func:`quorum_formation_times`.
        """
        if self._accept_send is None:
            latency = self.latency
            write = latency[self.leader][:, None] + latency
            self._accept_send = quorum_formation_times(
                write, self._weights_array(), self.quorum_weight
            )
        return float(self._accept_send[sender])

    # -- TR3 --------------------------------------------------------------
    def round_duration(self) -> float:
        """``d_rnd``: the leader's Accept quorum time (Aware's score)."""
        self.accept_send_time(self.leader)  # materialise the Accept sends
        arrivals = self._accept_send + self.latency[:, self.leader]
        return float(
            quorum_formation_times(
                arrivals[:, None], self._weights_array(), self.quorum_weight
            )[0]
        )

    # -- SuspicionSensor feed ----------------------------------------------
    def round_plan(self, receiver: int, delta: float = 1.0) -> RoundPlan:
        """Compile every ``d_m`` ``receiver`` expects in a round.

        Slots are ``(propose | write | accept, sender)``.  The element-wise
        float64 adds are the same IEEE operations as the scalar TR1/TR2
        chains (``propose_arrival`` + link, ``accept_send_time`` + link),
        so each ``d_m`` is bit-identical to them.
        """
        n, leader = self.n, self.leader
        self.accept_send_time(leader)  # materialise the Accept sends
        to_receiver = self.latency[:, receiver]
        write = (self.latency[leader] + to_receiver).tolist()
        accept = (self._accept_send + to_receiver).tolist()
        propose: List[Optional[float]] = [None] * n
        if receiver != leader:
            propose[leader] = self.propose_arrival(receiver)
        # The leader's Propose doubles as its Write; own messages are
        # never expected.
        write[leader] = None
        write[receiver] = None
        accept[receiver] = None
        phases = [PHASE_PROPOSE] * n + [PHASE_WRITE] * n + [PHASE_ACCEPT] * n
        return RoundPlan(
            ("propose", "write", "accept"), n, propose + write + accept, phases, delta
        )
