"""Tests for the PBFT engine and its Aware/OptiAware modes."""

import pytest

from repro.consensus.pbft import PbftCluster
from repro.faults.delay import DelayAttack


def test_static_cluster_serves_client(europe21):
    cluster = PbftCluster(europe21, mode="static", seed=1)
    cluster.run(10.0)
    completions = cluster.workload.metrics.commits
    assert len(completions) > 50
    latencies = [event.latency for event in completions]
    assert max(latencies) < 0.2  # Europe-scale round trips


def test_client_latency_series_buckets(europe21):
    cluster = PbftCluster(europe21, mode="static", seed=1)
    cluster.run(5.0)
    series = cluster.client.latency_series(5.0)
    assert series
    assert all(value > 0 for _t, value in series)


def test_replicas_commit_identical_sequences(europe21):
    cluster = PbftCluster(europe21, mode="static", seed=2)
    cluster.run(5.0)
    reference = None
    for replica in cluster.replicas:
        blocks = [
            replica.preprepares[seq].block.hash
            for seq in sorted(replica.executed)
        ]
        if reference is None:
            reference = blocks
        else:
            prefix = min(len(reference), len(blocks))
            assert blocks[:prefix] == reference[:prefix]


def test_aware_mode_optimizes_configuration(europe21):
    cluster = PbftCluster(europe21, mode="aware", seed=1)
    cluster.schedule_measurements(
        probe_at=1.0, publish_at=3.0, first_search_at=6.0,
        search_period=30.0, horizon=12.0,
    )
    cluster.run(12.0)
    assert cluster.replicas[0].reconfigure_times  # optimized at ~6 s
    leaders = {replica.config.leader for replica in cluster.replicas}
    assert len(leaders) == 1  # all replicas agree on the new leader


def test_optiaware_detects_delay_attack(europe21):
    cluster = PbftCluster(europe21, mode="optiaware", seed=1, delta=1.25)
    cluster.schedule_measurements(
        probe_at=1.0, publish_at=3.0, first_search_at=6.0,
        search_period=6.0, horizon=30.0,
    )

    def launch():
        attack = DelayAttack(
            attacker=cluster.current_leader,
            message_types=("PrePrepare",),
            extra_delay=0.8,
            start=10.0,
            now_fn=lambda: cluster.sim.now,
        )
        cluster.network.add_interceptor(attack)
        cluster.attacker = cluster.current_leader

    cluster.sim.schedule_at(10.0, launch)
    cluster.run(30.0)
    pipeline = cluster.replicas[1].optilog.pipeline
    assert cluster.attacker not in pipeline.candidates
    assert cluster.current_leader != cluster.attacker
    # Latency recovered at the end of the run.
    tail = [
        event.latency
        for event in cluster.workload.metrics.commits
        if event.commit_time > 25.0
    ]
    assert tail and sum(tail) / len(tail) < 0.2


def test_no_false_suspicions_without_attack(europe21):
    cluster = PbftCluster(europe21, mode="optiaware", seed=1, delta=1.25)
    cluster.schedule_measurements(
        probe_at=1.0, publish_at=3.0, first_search_at=6.0,
        search_period=30.0, horizon=15.0,
    )
    cluster.run(15.0)
    pipeline = cluster.replicas[0].optilog.pipeline
    assert pipeline.u == 0
    assert len(pipeline.candidates) == 21


def test_weighted_quorum_used_in_aware_mode(europe21):
    cluster = PbftCluster(europe21, mode="aware", seed=1)
    replica = cluster.replicas[0]
    assert replica.config.quorum_weight == 2 * (6 + 2) + 1
    cluster_static = PbftCluster(europe21, mode="static", seed=1)
    assert cluster_static.replicas[0]._quorum_weight == 14.0  # ⌈(n+f+1)/2⌉
