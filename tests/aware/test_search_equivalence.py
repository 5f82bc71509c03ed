"""Vectorized/incremental equivalence for the Aware/OptiAware search layer.

Three layers, each pinned bit-exactly against its scalar reference:

* :func:`quorum_formation_times` (the vectorized column scan) vs the
  per-dict :func:`quorum_formation_time` loop, including ties and
  unreachable quorums;
* ``PbftTimeouts.round_duration`` / ``weight_config_round_duration`` vs
  their ``*_scalar`` oracles in ``tests/oracles.py`` (fig7's simulations
  consume these values);
* the exhaustive search vs its per-leader Vmax reference.
"""

import math
import random

import numpy as np
import pytest

from oracles import (
    quorum_formation_time,
    round_duration_scalar,
    weight_config_round_duration_scalar,
    write_arrival,
)
from repro.aware.score import weight_config_round_duration
from repro.aware.search import (
    _centrality_order,
    exhaustive_weight_search,
)
from repro.aware.weights import WeightConfiguration, WheatParameters
from repro.core.timeouts import (
    PbftTimeouts,
    quorum_formation_times,
    weighted_round_duration,
)
from repro.net.deployments import random_world_deployment


def latency_for(n: int, seed: int = 0):
    deployment = random_world_deployment(n, random.Random(seed + n))
    return deployment.latency.matrix_seconds() / 2.0


def test_quorum_formation_times_bit_equals_scalar():
    rng = np.random.default_rng(7)
    for _ in range(20):
        senders, receivers = 17, 9
        arrivals = rng.uniform(0.0, 1.0, size=(senders, receivers))
        arrivals[rng.uniform(size=arrivals.shape) < 0.1] = math.inf
        # Inject exact ties so the (time, sender) tiebreak is exercised.
        arrivals[3] = arrivals[5]
        weights = rng.uniform(0.5, 2.0, size=senders)
        threshold = float(rng.uniform(1.0, weights.sum()))
        vectorized = quorum_formation_times(arrivals, weights, threshold)
        for column in range(receivers):
            scalar = quorum_formation_time(
                {s: float(arrivals[s, column]) for s in range(senders)},
                {s: float(weights[s]) for s in range(senders)},
                threshold,
            )
            assert vectorized[column] == scalar


def test_quorum_formation_times_unreachable_threshold():
    arrivals = np.array([[0.1], [0.2]])
    weights = np.array([1.0, 1.0])
    assert quorum_formation_times(arrivals, weights, 5.0)[0] == math.inf


@pytest.mark.parametrize("n", [21, 57])
def test_round_duration_bit_equals_scalar(n):
    latency = latency_for(n)
    f = (n - 1) // 3
    params = WheatParameters(n, f)
    rng = random.Random(n)
    for _ in range(5):
        leader = rng.randrange(n)
        vmax = frozenset(rng.sample(range(n), params.vmax_count))
        configuration = WeightConfiguration(
            n=n, f=f, leader=leader, vmax_replicas=vmax
        )
        timeouts = PbftTimeouts(
            latency,
            leader=leader,
            weights=configuration.weights(),
            quorum_weight=configuration.quorum_weight,
        )
        scalar = round_duration_scalar(timeouts)
        assert timeouts.round_duration() == scalar
        assert weight_config_round_duration(latency, configuration) == scalar
        assert weight_config_round_duration_scalar(latency, configuration) == scalar
        assert weighted_round_duration(
            latency, leader, configuration.weight_vector(), configuration.quorum_weight
        ) == scalar


def test_round_duration_uniform_weights_bit_equals_scalar():
    n = 21
    latency = latency_for(n)
    timeouts = PbftTimeouts(
        latency, leader=3, weights={r: 1.0 for r in range(n)}, quorum_weight=13
    )
    assert timeouts.round_duration() == round_duration_scalar(timeouts)


def test_accept_send_times_match_scalar_quorum_scan():
    n = 21
    latency = latency_for(n)
    weights = {r: 1.0 for r in range(n)}
    timeouts = PbftTimeouts(latency, leader=3, weights=weights, quorum_weight=13)
    for replica in range(n):
        arrivals = {
            writer: write_arrival(timeouts, writer, replica) for writer in range(n)
        }
        assert timeouts.accept_send_time(replica) == quorum_formation_time(
            arrivals, weights, 13
        )


def test_centrality_order_matches_scalar_reference():
    def scalar_order(latency, members):
        def mean_latency(replica):
            others = [latency[replica, other] for other in members if other != replica]
            return float(np.mean(others)) if others else 0.0

        return sorted(members, key=lambda replica: (mean_latency(replica), replica))

    for n, seed in ((21, 0), (57, 1)):
        latency = latency_for(n, seed)
        members = sorted(random.Random(seed).sample(range(n), n - 4))
        assert _centrality_order(latency, members) == scalar_order(latency, members)
    # Degenerate pools.
    latency = latency_for(21)
    assert _centrality_order(latency, [5]) == [5]
    assert _centrality_order(latency, []) == []


def test_weight_vector_matches_weights_dict():
    configuration = WeightConfiguration(
        n=21, f=6, leader=0, vmax_replicas=frozenset(range(3, 15))
    )
    vector = configuration.weight_vector()
    weights = configuration.weights()
    for replica in range(21):
        assert vector[replica] == weights[replica]


def test_exhaustive_search_hoisted_vmax_unchanged():
    """The hoisted leader-independent Vmax set must reproduce the
    reference behaviour: same greedy set for every leader, best leader
    selected on score with first-wins ties."""
    n, f = 21, 6
    latency = latency_for(n)
    best = exhaustive_weight_search(latency, n, f)
    params = WheatParameters(n, f)
    ordered = _centrality_order(latency, list(range(n)))
    assert best.vmax_replicas == frozenset(ordered[: params.vmax_count])
    expected_scores = {
        leader: weight_config_round_duration_scalar(
            latency,
            WeightConfiguration(
                n=n, f=f, leader=leader, vmax_replicas=best.vmax_replicas
            ),
        )
        for leader in range(n)
    }
    assert best.leader == min(expected_scores, key=lambda l: (expected_scores[l], l))
