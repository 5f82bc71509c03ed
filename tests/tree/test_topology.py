"""Tests for tree configurations and the branch-factor rule."""

import pytest

from repro.tree.topology import (
    TreeConfiguration,
    branch_factor_for,
)


@pytest.mark.parametrize(
    "n,b",
    [(13, 3), (21, 4), (43, 6), (57, 7), (73, 8), (91, 9), (111, 10),
     (157, 12), (183, 13), (211, 14)],
)
def test_paper_sizes_have_exact_branch_factors(n, b):
    """§7.3: b = (√(4n−3) − 1)/2 for every evaluation size."""
    assert branch_factor_for(n) == b
    assert 1 + b + b * b == n  # a perfect height-3 tree


def test_non_perfect_size_supported():
    b = branch_factor_for(56)  # Stellar56
    assert b == 6
    tree = TreeConfiguration.from_layout(range(56))
    sizes = [len(tree.children[i]) for i in tree.intermediates]
    assert sum(sizes) == 56 - 7
    assert max(sizes) - min(sizes) <= 1  # balanced leaf assignment


def test_structure_of_perfect_tree():
    tree = TreeConfiguration.from_layout(range(13))
    assert tree.root == 0
    assert tree.intermediates == (1, 2, 3)
    assert tree.internal_nodes == {0, 1, 2, 3}
    assert len(tree.leaves) == 9
    assert tree.children[0] == (1, 2, 3)
    assert tree.children[1] == (4, 5, 6)
    assert tree.parent[4] == 1
    assert tree.parent[1] == 0
    assert tree.subtree_size(1) == 4


def test_layout_must_be_permutation():
    with pytest.raises(ValueError):
        TreeConfiguration.from_layout([0, 0, 1, 2])
    with pytest.raises(ValueError):
        TreeConfiguration(layout=tuple(range(13)), branch_factor=0)


def test_special_replicas_are_internal_nodes():
    layout = list(range(13))[::-1]
    tree = TreeConfiguration.from_layout(layout)
    assert tree.special_replicas() == {12, 11, 10, 9}
    assert tree.participants() == frozenset(range(13))


def test_too_small_for_tree():
    with pytest.raises(ValueError):
        branch_factor_for(3)
