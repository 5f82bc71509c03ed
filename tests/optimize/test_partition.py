"""Tests for the one candidate partition: ``shard_candidates``."""

from repro.tree.optitree import shard_candidates


def test_partitions_cover_and_are_disjoint():
    candidates = frozenset(range(10))
    slices = shard_candidates(candidates, 3)
    union = frozenset().union(*slices)
    assert union == candidates
    total = sum(len(chunk) for chunk in slices)
    assert total == 10
    assert max(len(c) for c in slices) - min(len(c) for c in slices) <= 1


def test_partitions_deterministic_across_replicas():
    candidates = frozenset({9, 3, 7, 1, 5})
    assert shard_candidates(candidates, 2) == shard_candidates(
        frozenset([5, 1, 7, 3, 9]), 2
    )
    assert shard_candidates(candidates, 2) == [
        frozenset({1, 5, 9}), frozenset({3, 7})
    ]
