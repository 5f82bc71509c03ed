"""Tests for TR1-TR3 timeout derivation (Appendix C, Example C.1)."""

import math

import numpy as np
import pytest

from oracles import quorum_formation_time as quorum_formation_time_scalar
from oracles import write_arrival
from repro.core.timeouts import PbftTimeouts, quorum_formation_times

#: Plain PBFT's votes at n = 4: every replica weighs 1.
UNIFORM_4 = {replica: 1.0 for replica in range(4)}


def pbft_round_duration(latency: np.ndarray, leader: int) -> float:
    """Plain PBFT's ``d_rnd``: uniform weights, quorum 2f + 1."""
    n = latency.shape[0]
    f = (n - 1) // 3
    weights = {replica: 1.0 for replica in range(n)}
    return PbftTimeouts(latency, leader, weights, 2 * f + 1).round_duration()


def square_latency(n: float = 4, value: float = 0.01) -> np.ndarray:
    matrix = np.full((n, n), value)
    np.fill_diagonal(matrix, 0.0)
    return matrix


# ----------------------------------------------------------------------
# Quorum formation
# ----------------------------------------------------------------------
def quorum_formation_time(arrivals, weights, threshold):
    """One column through the shipped vectorized scan, cross-checked
    against the scalar oracle."""
    senders = sorted(arrivals)
    column = np.array([[arrivals[s]] for s in senders])
    vector = np.array([weights.get(s, 0.0) for s in senders])
    formed = float(quorum_formation_times(column, vector, threshold)[0])
    assert formed == quorum_formation_time_scalar(arrivals, weights, threshold)
    return formed


def test_quorum_formation_takes_fastest_senders():
    arrivals = {0: 0.1, 1: 0.2, 2: 0.5, 3: 0.9}
    weights = {i: 1.0 for i in range(4)}
    assert quorum_formation_time(arrivals, weights, 3.0) == 0.5


def test_quorum_formation_weighted_smaller_quorum():
    arrivals = {0: 0.1, 1: 0.2, 2: 0.5}
    weights = {0: 2.0, 1: 2.0, 2: 1.0}
    # Weight 4 reached with just the two fast heavy senders.
    assert quorum_formation_time(arrivals, weights, 4.0) == 0.2


def test_quorum_formation_infeasible():
    arrivals = {0: 0.1}
    assert quorum_formation_time(arrivals, {0: 1.0}, 2.0) == math.inf


def test_quorum_formation_ignores_unreachable():
    arrivals = {0: 0.1, 1: math.inf, 2: 0.2}
    weights = {i: 1.0 for i in range(3)}
    assert quorum_formation_time(arrivals, weights, 2.0) == 0.2


# ----------------------------------------------------------------------
# TR1 / TR2 / TR3
# ----------------------------------------------------------------------
def test_tr1_propose_is_single_link():
    latency = square_latency()
    timeouts = PbftTimeouts(latency, leader=0, weights=UNIFORM_4, quorum_weight=3)
    assert timeouts.propose_arrival(1) == pytest.approx(0.01)
    assert timeouts.propose_arrival(0) == 0.0


def test_tr2_write_adds_link_to_propose():
    latency = square_latency()
    timeouts = PbftTimeouts(latency, leader=0, weights=UNIFORM_4, quorum_weight=3)
    assert write_arrival(timeouts, 1, 2) == pytest.approx(0.02)
    # The leader's propose doubles as its write: one link only.
    assert write_arrival(timeouts, 0, 2) == pytest.approx(0.01)


def test_tr3_round_duration_on_uniform_square():
    latency = square_latency(value=0.01)
    # propose 0.01, writes 0.02, accept-send at write-quorum, accept +1 link.
    duration = pbft_round_duration(latency, 0)
    assert duration == pytest.approx(0.03)


def test_round_duration_scales_with_latency():
    slow = pbft_round_duration(square_latency(value=0.05), 0)
    fast = pbft_round_duration(square_latency(value=0.01), 0)
    assert slow == pytest.approx(5 * fast)


def test_leader_choice_changes_round_duration(europe21_links):
    durations = {
        leader: pbft_round_duration(europe21_links, leader)
        for leader in range(europe21_links.shape[0])
    }
    assert max(durations.values()) > min(durations.values())


def test_expected_messages_cover_all_phases():
    latency = square_latency()
    timeouts = PbftTimeouts(latency, leader=0, weights=UNIFORM_4, quorum_weight=3)
    expected = timeouts.round_plan(1).expected_messages()
    kinds = {(m.sender, m.msg_type) for m in expected}
    assert (0, "propose") in kinds
    assert (2, "write") in kinds
    assert (0, "accept") in kinds
    assert (1, "write") not in kinds  # own messages not expected


def test_expected_messages_monotone_in_phase():
    """TR2 chains: each message's d_m is at least its predecessor's."""
    latency = square_latency()
    timeouts = PbftTimeouts(latency, leader=0, weights=UNIFORM_4, quorum_weight=3)
    expected = {(m.msg_type, m.sender): m.d_m for m in timeouts.round_plan(1).expected_messages()}
    assert expected[("write", 2)] >= expected[("propose", 0)]
    assert expected[("accept", 2)] >= expected[("write", 2)]


def test_optimized_weighted_round_beats_unweighted(europe21_links):
    """An *optimized* Wheat assignment beats plain PBFT (§5's rationale);
    an arbitrary assignment need not, so the search result is compared."""
    from repro.aware.search import exhaustive_weight_search
    from repro.aware.score import weight_config_round_duration

    n, f = 21, 6
    best = exhaustive_weight_search(europe21_links, n, f)
    weighted = weight_config_round_duration(europe21_links, best)
    unweighted = min(
        pbft_round_duration(europe21_links, leader) for leader in range(n)
    )
    assert weighted <= unweighted + 1e-12
