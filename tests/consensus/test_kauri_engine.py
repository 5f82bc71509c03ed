"""Tests for the Kauri tree engine."""

import random

import pytest

from repro.consensus.kauri import KauriCluster
from repro.faults.delay import DeltaDelayAttack
from repro.tree.topology import TreeConfiguration


def make_cluster(europe21, depth=1, seed=1, tree_seed=3, **kwargs):
    layout = list(range(21))
    random.Random(tree_seed).shuffle(layout)
    tree = TreeConfiguration.from_layout(layout)
    return KauriCluster(europe21, tree, pipeline_depth=depth, seed=seed, **kwargs)


def test_tree_commits_blocks(europe21):
    cluster = make_cluster(europe21)
    metrics = cluster.run(5.0)
    assert metrics.total_requests() > 0


def test_pipelining_multiplies_throughput(europe21):
    single = make_cluster(europe21, depth=1).run(10.0)
    piped = make_cluster(europe21, depth=3).run(10.0)
    ratio = piped.throughput(10.0) / single.throughput(10.0)
    assert 2.0 < ratio < 4.0


def test_tree_latency_above_star(europe21):
    """Four tree hops cost more than the star's two (§7.4's trade-off)."""
    from repro.consensus.hotstuff import HotStuffCluster

    star = HotStuffCluster(europe21, seed=1).run(10.0)
    tree = make_cluster(europe21, depth=1).run(10.0)
    assert tree.mean_latency() > star.mean_latency()


def test_aggregates_flow_through_intermediates(europe21):
    cluster = make_cluster(europe21)
    cluster.run(3.0)
    root = cluster.root_replica
    assert root.committed_height > 0
    # Every vote the root counted came via its intermediates or itself.
    for height, votes in root.root_votes.items():
        assert votes <= set(range(21))


def test_missing_child_votes_become_suspicions(europe21):
    """§6.3: aggregates must carry suspicions for missing votes."""
    cluster = make_cluster(europe21)
    victim = cluster.tree.children[cluster.tree.intermediates[0]][0]
    cluster.network.set_down(victim)
    cluster.run(5.0)
    parent = cluster.replicas[cluster.tree.parent[victim]]
    # child -> (count, first_height, last_height): one suspicion per
    # height the parent aggregated without the victim, and nobody else.
    assert set(parent.aggregation_suspicions) == {victim}
    count, first, last = parent.aggregation_suspicions[victim]
    assert count >= 1
    assert 1 <= first <= last
    assert count == last - first + 1
    # Consensus still lives: q = n - f needs only 15 of 21 votes.
    assert cluster.root_replica.metrics.total_requests() > 0


def test_delta_delay_attack_slows_but_never_suspected(europe21):
    """Delaying every intermediate guarantees the critical path slows;
    fewer attackers may hide in quorum slack (which is Fig. 11's point
    about picking δ)."""
    clean = make_cluster(europe21, depth=1).run(10.0)
    attacked_cluster = make_cluster(europe21, depth=1)
    attackers = list(attacked_cluster.tree.intermediates)
    attacked_cluster.network.add_interceptor(
        DeltaDelayAttack(attackers=attackers, delta=1.4)
    )
    attacked = attacked_cluster.run(10.0)
    assert attacked.throughput(10.0) < clean.throughput(10.0)
    assert attacked.mean_latency() > clean.mean_latency()


def test_install_tree_reconfigures_roles(europe21):
    cluster = make_cluster(europe21)
    cluster.run(2.0)
    layout = list(range(21))
    random.Random(9).shuffle(layout)
    new_tree = TreeConfiguration.from_layout(layout)
    next_height = max(replica.next_height for replica in cluster.replicas)
    for replica in cluster.replicas:
        replica.next_height = next_height
        replica.committed_height = max(replica.committed_height, next_height - 1)
    cluster.install_tree(new_tree)
    cluster.resume()
    cluster.sim.run(until=cluster.sim.now + 3.0)
    cluster.pause()
    new_root = cluster.replicas[new_tree.root]
    assert new_root.committed_height >= next_height
    assert new_root.is_root


def test_tree_change_does_not_recommit_requests(europe21):
    """A new root must not re-propose requests the old root already put
    in flight: committed payload stays bounded by requests sent."""
    import random

    from repro.tree.kauri_reconfig import KauriReconfigurer
    from repro.workloads import OpenLoopWorkload

    reconfigurer = KauriReconfigurer(europe21.n, rng=random.Random(1))
    cluster = KauriCluster(
        europe21, reconfigurer.tree_for_bin(0), pipeline_depth=1, seed=1
    )
    workload = OpenLoopWorkload(rate=50.0)
    cluster.attach_workload(workload)
    cluster.sim.schedule_at(
        5.0, lambda: cluster.install_tree(reconfigurer.tree_for_bin(1))
    )
    cluster.run(10.0)
    total_committed = sum(
        event.payload_count
        for replica in cluster.replicas
        for event in replica.metrics.commits
    )
    assert workload.sent > 0
    assert total_committed <= workload.sent


def test_tree_change_does_not_starve_closed_loop_client(europe21):
    """Requests in flight when the tree changes must be recovered by the
    new root, or a closed-loop client (one outstanding request) would
    deadlock for the rest of the run."""
    import random

    from repro.tree.kauri_reconfig import KauriReconfigurer
    from repro.workloads import ClosedLoopWorkload

    reconfigurer = KauriReconfigurer(europe21.n, rng=random.Random(2))
    cluster = KauriCluster(
        europe21, reconfigurer.tree_for_bin(0), pipeline_depth=1, seed=2
    )
    workload = ClosedLoopWorkload()
    cluster.attach_workload(workload)
    completed_at_switch = {}

    def switch():
        completed_at_switch["n"] = workload.clients[0].completed
        cluster.install_tree(reconfigurer.tree_for_bin(1))

    cluster.sim.schedule_at(5.0, switch)
    cluster.run(12.0)
    assert workload.clients[0].completed > completed_at_switch["n"] + 5
