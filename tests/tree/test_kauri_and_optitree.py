"""Tests for Kauri reconfiguration bins, Kauri-sa and OptiTree search."""

import random

import pytest

from oracles import mutate_tree
from repro.optimize.annealing import AnnealingSchedule
from repro.tree.kauri_reconfig import KauriReconfigurer, StarFallback
from repro.tree.kauri_sa import KauriSaReconfigurer
from repro.tree.optitree import OptiTree, optitree_search, random_tree
from repro.tree.score import tree_score
from repro.tree.topology import TreeConfiguration

FAST = AnnealingSchedule(iterations=800, initial_temperature=0.05)


# ----------------------------------------------------------------------
# Kauri bins (t-bounded conformity)
# ----------------------------------------------------------------------
def test_bins_are_disjoint_and_sized():
    reconfigurer = KauriReconfigurer(21, rng=random.Random(1))
    bins = reconfigurer.bins
    assert len(bins) == 21 // 5  # i = b+1 = 5, t = n // i = 4
    seen = set()
    for bin_members in bins:
        assert len(bin_members) == 5
        assert not (set(bin_members) & seen)
        seen.update(bin_members)


def test_one_bin_is_fault_free_when_f_less_than_t():
    """t-bounded conformity: f < t guarantees a fault-free bin."""
    reconfigurer = KauriReconfigurer(21, rng=random.Random(3))
    t = reconfigurer.bin_count
    faulty = set(random.Random(5).sample(range(21), t - 1))
    clean = [b for b in reconfigurer.bins if not (set(b) & faulty)]
    assert clean, "no fault-free bin despite f < t"


def test_trees_use_bin_members_as_internal():
    reconfigurer = KauriReconfigurer(21, rng=random.Random(1))
    tree = reconfigurer.tree_for_bin(0)
    assert tree.internal_nodes == set(reconfigurer.bins[0])


def test_star_fallback_after_t_trials():
    reconfigurer = KauriReconfigurer(21, rng=random.Random(1))
    for _ in range(reconfigurer.bin_count):
        assert isinstance(reconfigurer.next_tree(), TreeConfiguration)
    assert isinstance(reconfigurer.next_tree(), StarFallback)


# ----------------------------------------------------------------------
# OptiTree search
# ----------------------------------------------------------------------
def test_random_tree_respects_candidates():
    candidates = frozenset(range(5, 21))
    tree = random_tree(21, candidates, random.Random(2))
    assert tree.internal_nodes <= candidates


def test_random_tree_none_when_too_few_candidates():
    assert random_tree(21, frozenset({1, 2}), random.Random(2)) is None


def test_mutate_keeps_internal_positions_candidate_only():
    candidates = frozenset(range(10))
    rng = random.Random(4)
    tree = random_tree(21, candidates, rng)
    for _ in range(200):
        tree = mutate_tree(tree, candidates, rng)
        assert tree.internal_nodes <= candidates


def test_search_improves_over_random(world57_links):
    n, f = 57, 18
    rng = random.Random(7)
    result = optitree_search(
        world57_links, n, f, frozenset(range(n)), u=0, rng=rng,
        schedule=AnnealingSchedule(iterations=4000, initial_temperature=0.05),
    )
    assert result.best_score <= result.initial_score
    assert result.best_score < result.initial_score  # virtually certain
    assert result.best_state.internal_nodes <= frozenset(range(n))


def test_search_larger_u_never_faster(world57_links):
    """score(q+u) is monotone in u: more robustness costs latency."""
    n, f = 57, 18
    base = optitree_search(
        world57_links, n, f, frozenset(range(n)), u=0,
        rng=random.Random(1), schedule=FAST,
    )
    tree = base.best_state
    q = n - f
    assert tree_score(world57_links, tree, q) <= tree_score(
        world57_links, tree, q + 5
    )


def test_optitree_stack_search_and_validate(world57_links):
    stack = OptiTree(0, 57, 18, search_schedule=FAST)
    from repro.core.records import LatencyVectorRecord

    for sender in range(57):
        stack.pipeline.log.append(
            LatencyVectorRecord(
                sender=sender,
                vector=tuple(float(world57_links[sender, j]) for j in range(57)),
            )
        )
    record = stack.pipeline.config_sensor.search_and_propose()
    assert record is not None
    stack.pipeline.log.append(record)
    tree = stack.pipeline.config_monitor.current
    assert isinstance(tree, TreeConfiguration)
    timeouts = stack.timeouts_for(tree)
    assert timeouts.round_duration() > 0


# ----------------------------------------------------------------------
# Kauri-sa
# ----------------------------------------------------------------------
def test_kauri_sa_blacklists_internal_nodes(world57_links):
    reconfigurer = KauriSaReconfigurer(
        world57_links, 57, 18, rng=random.Random(5), schedule=FAST
    )
    first = reconfigurer.next_tree()
    reconfigurer.tree_failed(first)
    assert first.internal_nodes <= reconfigurer.excluded
    second = reconfigurer.next_tree()
    assert not (second.internal_nodes & first.internal_nodes)


def test_kauri_sa_exhausts_candidates(world57_links):
    reconfigurer = KauriSaReconfigurer(
        world57_links, 57, 18, rng=random.Random(5), schedule=FAST
    )
    trees = 0
    while True:
        tree = reconfigurer.next_tree()
        if tree is None:
            break
        reconfigurer.tree_failed(tree)
        trees += 1
        assert trees < 20
    # 8 internal nodes per tree, 57 replicas: at most 7 trees.
    assert trees == 57 // 8
