"""Tests for Definition 1's score and the tree timeouts of Lemma 6."""

import math

import numpy as np
import pytest

from repro.tree.score import (
    TreeTimeouts,
    aggregation_latency,
    default_k,
    tree_score,
)
from repro.tree.topology import TreeConfiguration


def uniform_latency(n: int, value: float = 0.01) -> np.ndarray:
    matrix = np.full((n, n), value)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def test_aggregation_latency_is_slowest_child_link():
    n = 13
    latency = uniform_latency(n)
    tree = TreeConfiguration.from_layout(range(n))
    latency[1, 6] = 0.05  # one slow leaf under intermediate 1
    latency[6, 1] = 0.05
    assert aggregation_latency(latency, tree, 1) == 0.05
    assert aggregation_latency(latency, tree, 2) == 0.01


def test_score_uniform_tree():
    n = 13
    tree = TreeConfiguration.from_layout(range(n))
    latency = uniform_latency(n)
    # Each subtree: Lagg + L[I,R] = 0.02, covering 4 votes; root adds 1.
    assert tree_score(latency, tree, k=5) == pytest.approx(0.02)
    assert tree_score(latency, tree, k=13) == pytest.approx(0.02)


def test_score_takes_cheapest_covering_subtrees():
    n = 13
    tree = TreeConfiguration.from_layout(range(n))
    latency = uniform_latency(n)
    # Make intermediate 3's subtree slow.
    for child in tree.children[3]:
        latency[3, child] = latency[child, 3] = 0.10
    # k=9: subtrees of intermediates 1 and 2 cover 8 + root = 9.
    assert tree_score(latency, tree, k=9) == pytest.approx(0.02)
    # k=13 needs subtree 3 as well: cost jumps to 0.10 + 0.01.
    assert tree_score(latency, tree, k=13) == pytest.approx(0.11)


def test_score_infeasible_when_k_exceeds_votes():
    n = 13
    tree = TreeConfiguration.from_layout(range(n))
    assert tree_score(uniform_latency(n), tree, k=14) == math.inf


def test_round_duration_counts_dissemination():
    n = 13
    tree = TreeConfiguration.from_layout(range(n))
    latency = uniform_latency(n)
    score = tree_score(latency, tree, k=9)
    duration = TreeTimeouts(latency, tree, k=9).round_duration()
    # down + 2*Lagg + up = 0.04 vs score's Lagg + up = 0.02.
    assert duration == pytest.approx(2 * score)


def test_better_placement_scores_lower(world57_links):
    """Moving well-connected replicas to internal positions must help:
    the score of the best-of-100 random layouts beats the worst."""
    import random

    from repro.tree.optitree import random_tree

    n, f = 57, 18
    rng = random.Random(1)
    scores = []
    for _ in range(100):
        tree = random_tree(n, frozenset(range(n)), rng)
        scores.append(tree_score(world57_links, tree, 2 * f + 1))
    assert min(scores) < 0.8 * max(scores)


# ----------------------------------------------------------------------
# TreeTimeouts: TR1/TR2 chains along the tree (Lemma 6)
# ----------------------------------------------------------------------
def test_timeouts_chain_monotonically():
    n = 13
    tree = TreeConfiguration.from_layout(range(n))
    timeouts = TreeTimeouts(uniform_latency(n), tree, k=9)
    leaf, intermediate = 4, 1
    assert timeouts.propose_arrival(intermediate) == pytest.approx(0.01)
    assert timeouts.forward_arrival(leaf) == pytest.approx(0.02)
    votes = {m.sender: m.d_m for m in timeouts.expected_messages(intermediate)}
    assert votes[leaf] == pytest.approx(0.03)
    aggregates = {m.sender: m.d_m for m in timeouts.expected_messages(tree.root)}
    assert aggregates[intermediate] == pytest.approx(0.04)
    assert timeouts.round_duration() == pytest.approx(0.04)


def test_expected_messages_by_role():
    n = 13
    tree = TreeConfiguration.from_layout(range(n))
    timeouts = TreeTimeouts(uniform_latency(n), tree, k=9)
    # Root expects aggregates from its intermediates.
    root_msgs = timeouts.expected_messages(0)
    assert {m.sender for m in root_msgs} == {1, 2, 3}
    assert all(m.msg_type == "aggregate" for m in root_msgs)
    # Intermediates expect the propose and their children's votes.
    mid_msgs = timeouts.expected_messages(1)
    kinds = {(m.sender, m.msg_type) for m in mid_msgs}
    assert (0, "propose") in kinds
    assert (4, "vote") in kinds
    # Leaves only track the forwarded proposal (§6.3 optimization).
    leaf_msgs = timeouts.expected_messages(4)
    assert [m.msg_type for m in leaf_msgs] == ["forward"]


def test_default_k():
    assert default_k(n=21, f=6, u=0) == 15
    assert default_k(n=21, f=6, u=3) == 18
