"""Tests for the chained HotStuff engine."""

import pytest

from oracles import BlockObserver
from repro.consensus.hotstuff import HotStuffCluster


def test_fixed_leader_commits_blocks(europe21):
    cluster = HotStuffCluster(europe21, leader_mode="fixed", fixed_leader=0, seed=1)
    metrics = cluster.run(5.0)
    assert metrics.total_requests() > 0
    assert metrics.commits[0].height == 1
    # Heights commit in order, gap-free.
    heights = [event.height for event in metrics.commits]
    assert heights == list(range(1, len(heights) + 1))


def test_latency_is_three_chain(europe21):
    """Commit latency ≈ 3 rounds (the 3-chain rule)."""
    cluster = HotStuffCluster(europe21, leader_mode="fixed", fixed_leader=0,
                              seed=1, jitter=0.0)
    metrics = cluster.run(10.0)
    mean_latency = metrics.mean_latency()
    # One round = leader->replica->leader over the quorum boundary.
    round_estimate = mean_latency / 3.0
    assert 0.005 < round_estimate < 0.05


def test_round_robin_rotates_proposers(europe21):
    cluster = HotStuffCluster(europe21, leader_mode="rr", seed=1)
    # A replica keeps a block only until it commits, so the run's
    # proposers are observed as blocks are delivered.
    observed = BlockObserver(cluster.network)
    cluster.run(5.0)
    assert observed.proposers == set(range(21))
    assert all(
        block.proposer == height % 21
        for (_node, height), block in observed.blocks.items()
    )


def test_throughput_reflects_block_payload(europe21):
    cluster = HotStuffCluster(europe21, seed=1)
    for replica in cluster.replicas:
        replica.payload_per_block = 500
    metrics = cluster.run(5.0)
    assert metrics.total_requests() == 500 * len(metrics.commits)


def test_farther_deployment_slower(europe21, global73):
    fast = HotStuffCluster(europe21, seed=1).run(5.0)
    slow = HotStuffCluster(global73, seed=1).run(5.0)
    assert slow.mean_latency() > fast.mean_latency()


def test_safety_no_conflicting_commits(europe21):
    """No two replicas commit different blocks at the same height."""
    cluster = HotStuffCluster(europe21, leader_mode="rr", seed=3)
    observed = BlockObserver(cluster.network)
    cluster.run(5.0)
    by_height = {}
    for replica in cluster.replicas:
        assert replica.metrics.commits
        for event in replica.metrics.commits:
            # Committed blocks are retired from block_at_height; the
            # observer kept what this replica was handed at the height.
            block = observed.blocks[(replica.id, event.height)]
            existing = by_height.setdefault(event.height, block.hash)
            assert existing == block.hash, f"fork at height {event.height}"


@pytest.mark.parametrize("leader", [-1, 21, 100])
def test_fixed_leader_outside_the_replicas_is_rejected(europe21, leader):
    # No replica would ever lead: the run used to commit nothing, silently.
    with pytest.raises(ValueError, match=rf"fixed_leader .*\[0, 21\).*{leader}"):
        HotStuffCluster(europe21, leader_mode="fixed", fixed_leader=leader)


def test_fixed_leader_at_the_last_replica_commits(europe21):
    cluster = HotStuffCluster(europe21, leader_mode="fixed", fixed_leader=20, seed=1)
    observed = BlockObserver(cluster.network)
    metrics = cluster.run(2.0)
    assert metrics.commits
    assert observed.proposers == {20}
