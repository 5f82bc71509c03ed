"""Vectorized-vs-scalar equivalence for the tree timeouts.

The numpy arrival chains must match the scalar definitions *to the
float* (bit equality, not approx): seeded simulations consume these
values directly, so any ulp drift would break the repo-wide determinism
contract.
"""

import math
import random

import pytest

from repro.net.deployments import random_world_deployment
from repro.tree.optitree import random_tree
from repro.tree.score import TreeTimeouts, _collect_time, tree_score


def latency_for(n: int, seed: int = 0):
    deployment = random_world_deployment(n, random.Random(seed + n))
    return deployment.latency.matrix_seconds() / 2.0


def scalar_round_duration(latency, tree, k):
    """TR3's d_rnd by per-node Python recursion, in the chain's op order:
    ((L[R][I] + L[I][c]) + L[c][I]) + L[I][R] over the slowest child."""
    root = tree.root
    costs = []
    for intermediate in tree.intermediates:
        propose = float(latency[root, intermediate])
        slowest = propose
        children = tree.children[intermediate]
        if children:
            slowest = max(
                propose + float(latency[intermediate, leaf]) + float(latency[leaf, intermediate])
                for leaf in children
            )
        aggregate = slowest + float(latency[intermediate, root])
        costs.append((aggregate, tree.subtree_size(intermediate)))
    return _collect_time(costs, k - 1)


@pytest.mark.parametrize("n", [13, 57, 211])
def test_vectorized_round_duration_bit_equals_scalar(n):
    latency = latency_for(n)
    rng = random.Random(n + 1)
    f = (n - 1) // 3
    for _ in range(10):
        tree = random_tree(n, frozenset(range(n)), rng)
        scalar = scalar_round_duration(latency, tree, 2 * f + 1)
        assert TreeTimeouts(latency, tree, 2 * f + 1).round_duration() == scalar


def test_tree_score_infeasible_k():
    n = 57
    latency = latency_for(n)
    tree = random_tree(n, frozenset(range(n)), random.Random(0))
    assert tree_score(latency, tree, n + 1) == math.inf
    assert tree_score(latency, tree, 1) == 0.0  # root's own vote suffices


@pytest.mark.parametrize("n", [13, 57, 211])
def test_tree_timeout_chains_bit_equal_scalar_definitions(n):
    """The memoized TR1/TR2 chains, as every role's expected messages
    carry them, equal the recursive definitions."""
    latency = latency_for(n)
    tree = random_tree(n, frozenset(range(n)), random.Random(2))
    f = (n - 1) // 3
    timeouts = TreeTimeouts(latency, tree, k=2 * f + 1)
    root = tree.root
    aggregates = {m.sender: m.d_m for m in timeouts.expected_messages(root)}
    for intermediate in tree.intermediates:
        propose = float(latency[root, intermediate])
        assert timeouts.propose_arrival(intermediate) == propose
        expected = timeouts.expected_messages(intermediate)
        votes = {m.sender: m.d_m for m in expected if m.msg_type == "vote"}
        children = tree.children[intermediate]
        for leaf in children:
            forward = propose + float(latency[intermediate, leaf])
            vote = forward + float(latency[leaf, intermediate])
            assert timeouts.forward_arrival(leaf) == forward
            (message,) = timeouts.expected_messages(leaf)
            assert message.d_m == forward
            assert votes[leaf] == vote
        slowest = max(votes.values()) if children else propose
        assert aggregates[intermediate] == (
            slowest + float(latency[intermediate, root])
        )


def test_timeout_expected_messages_use_memoized_chains():
    """d_rnd is the quorum-collect time of the very aggregate d_m the
    root's SuspicionSensor expects: one chain feeds both."""
    n = 57
    latency = latency_for(n)
    tree = random_tree(n, frozenset(range(n)), random.Random(3))
    timeouts = TreeTimeouts(latency, tree, k=39)
    expected = timeouts.expected_messages(tree.root)
    assert [m.sender for m in expected] == list(tree.intermediates)
    costs = [(m.d_m, tree.subtree_size(m.sender)) for m in expected]
    assert timeouts.round_duration() == _collect_time(costs, 39 - 1)
    leaf = tree.leaves[0]
    (forward,) = timeouts.expected_messages(leaf)
    assert forward.d_m == timeouts.forward_arrival(leaf)
