"""Incremental-vs-full equivalence for the tree search engines.

The acceptance bar for the optimizer refactor: for every engine entry
point, the incremental path returns *identical* ``best_state`` /
``best_score`` / ``accepted`` to the full-scoring reference under the
same seed, across sizes including the paper's n=211, and the delta
scores match the from-scratch scores to the bit -- after every accept
(``ScoreChecked``) and, through ``EveryProposalChecked``, after every
proposal.  The full-scoring reference is ``optitree_search_full``
in ``tests/oracles.py``.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import EveryProposalChecked, ScoreChecked, optitree_search_full
from repro.net.deployments import random_world_deployment
from repro.optimize.annealing import AnnealingSchedule, anneal_incremental
from repro.tree.kauri_sa import KauriSaReconfigurer
from repro.tree.optitree import IncrementalTreeSearch, optitree_search, random_tree
from repro.tree.score import default_k, tree_score
from repro.tree.topology import (
    TreeConfiguration,
    branch_factor_for,
    tree_position_structure,
)


def latency_for(n: int, seed: int = 0):
    deployment = random_world_deployment(n, random.Random(seed + n))
    return deployment.latency.matrix_seconds() / 2.0


SCHEDULE = AnnealingSchedule(iterations=600, initial_temperature=0.05, cooling=0.9995)


@pytest.mark.parametrize("n", [4, 57, 211])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_optitree_incremental_matches_full(n, seed):
    latency = latency_for(n)
    f = (n - 1) // 3
    kwargs = dict(
        candidates=frozenset(range(n)), u=0, schedule=SCHEDULE, k=2 * f + 1
    )
    fast = optitree_search(latency, n, f, rng=random.Random(seed), **kwargs)
    slow = optitree_search_full(latency, n, f, rng=random.Random(seed), **kwargs)
    assert fast.best_state == slow.best_state
    assert fast.best_score == slow.best_score
    assert fast.initial_score == slow.initial_score
    assert fast.accepted == slow.accepted
    assert fast.iterations_used == slow.iterations_used


@pytest.mark.parametrize("n,candidate_range", [(57, (3, 40)), (211, (10, 150))])
def test_optitree_incremental_matches_full_restricted_candidates(n, candidate_range):
    """The candidate-respecting mutation path (resampled swap targets)
    must consume randomness identically in both engines."""
    latency = latency_for(n)
    f = (n - 1) // 3
    candidates = frozenset(range(*candidate_range))
    kwargs = dict(candidates=candidates, u=2, schedule=SCHEDULE)
    fast = optitree_search(latency, n, f, rng=random.Random(9), **kwargs)
    slow = optitree_search_full(latency, n, f, rng=random.Random(9), **kwargs)
    assert fast.best_state == slow.best_state
    assert fast.best_score == slow.best_score
    assert fast.accepted == slow.accepted
    assert fast.best_state.internal_nodes <= candidates


@pytest.mark.parametrize("n", [4, 57, 211])
def test_tree_engine_deltas_match_full_scores_to_the_bit(n):
    """ScoreChecked: every accepted incremental score equals the
    from-scratch ``tree_score`` of the mutated layout exactly."""
    latency = latency_for(n)
    f = (n - 1) // 3
    k = 2 * f + 1
    candidates = frozenset(range(n))
    rng = random.Random(31)
    initial = random_tree(n, candidates, rng)
    engine = IncrementalTreeSearch(latency, initial, candidates, k)
    result = anneal_incremental(
        ScoreChecked(engine, lambda tree: tree_score(latency, tree, k)),
        rng,
        AnnealingSchedule(iterations=300, initial_temperature=0.05),
    )
    assert result.accepted > 0
    # The engine's final cached costs equal a fresh engine's.
    rebuilt = IncrementalTreeSearch(
        latency, engine.snapshot(), candidates, k
    )
    assert rebuilt.costs == engine.costs
    assert rebuilt.lagg == engine.lagg


def awkward_latency(n: int, seed: int, kind: str) -> np.ndarray:
    """One-way links that defeat a comparison: ``inf`` for unmeasured
    pairs (what ``core/latency.py`` holds), exact duplicates, zeros."""
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(0.005, 0.2, size=(n, n))
    if kind == "duplicates":
        matrix = np.round(matrix, 2)  # ~20 distinct values: ties everywhere
    elif kind == "inf":
        matrix[rng.random((n, n)) < 0.03] = math.inf
    elif kind == "zeros":
        matrix[rng.random((n, n)) < 0.5] = 0.0
    np.fill_diagonal(matrix, 0.0)
    return matrix


def checked_search(latency, n, f, candidates, u, k, initial, seed, iterations):
    """``optitree_search`` on an engine that checks every proposal; the
    result must also be the full-scoring twin's."""
    schedule = AnnealingSchedule(
        iterations=iterations, initial_temperature=0.05, cooling=0.999
    )
    rng = random.Random(seed)
    start = initial if initial is not None else random_tree(n, candidates, rng)
    engine = EveryProposalChecked(
        latency, start, candidates, k if k is not None else default_k(n, f, u)
    )
    result = anneal_incremental(engine, rng, schedule)
    assert result == optitree_search_full(
        latency, n, f, candidates, u,
        rng=random.Random(seed), schedule=schedule, k=k, initial=initial,
    )
    return engine, result


@st.composite
def search_cases(draw):
    n = draw(st.sampled_from([4, 7, 13, 21, 57, 73, 211]))
    f = (n - 1) // 3
    b = branch_factor_for(n)
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from(["plain", "inf", "duplicates", "zeros"]))
    u = draw(st.integers(0, 2))
    k = draw(st.one_of(st.none(), st.integers(2, n)))
    candidates = frozenset(range(n))
    if draw(st.booleans()):  # restricted K, still large enough for a tree
        first = draw(st.integers(0, n - b - 1))
        candidates = frozenset(range(first, draw(st.integers(first + b + 1, n))))
    initial = None
    outsiders = sorted(set(range(n)) - candidates)
    if outsiders and draw(st.booleans()):
        # Infeasible start: an internal node outside K, score inf until
        # a swap repairs it.
        layout = outsiders[:1] + sorted(candidates) + outsiders[1:]
        position = draw(st.integers(0, b))
        layout[0], layout[position] = layout[position], layout[0]
        initial = TreeConfiguration.from_layout(layout)
    return n, f, seed, kind, u, k, candidates, initial


@given(search_cases())
@example((211, 70, 1, "duplicates", 1, None, frozenset(range(10, 150)), None))
@settings(max_examples=40, deadline=None)
def test_every_proposal_matches_a_from_scratch_score(case):
    n, f, seed, kind, u, k, candidates, initial = case
    latency = awkward_latency(n, seed, kind)
    engine, result = checked_search(
        latency, n, f, candidates, u, k, initial, seed, iterations=150 if n > 100 else 400
    )
    assert engine.proposals > 0
    if initial is not None:
        assert result.initial_score == math.inf


@pytest.mark.parametrize("kind", ["inf", "duplicates", "zeros"])
def test_undecided_comparisons_rescan(kind):
    """A leaving link that ties the cached maximum (or held it) settles
    nothing about the children that stay: each awkward matrix must send
    leaf swaps down the rescan branch, and stay exact while it does."""
    n, f = 57, 18
    engine, _ = checked_search(
        awkward_latency(n, 5, kind), n, f, frozenset(range(n)), 0, None, None,
        seed=5, iterations=2000,
    )
    assert engine.leaf_rescans > 0
    assert engine.rescans < 2 * engine.proposals  # and the O(1) path still runs


@pytest.mark.parametrize("n", [2, 4, 5, 57, 73, 127, 128, 129, 211, 1024])
def test_position_draw_is_randrange(n):
    """``propose`` runs ``randrange(n)``'s rejection loop inline: the same
    positions, and the generator left in the same state, as two
    ``randrange`` calls on a twin (10**4 draws per size)."""
    tree = TreeConfiguration.from_layout(range(n), branch_factor=1)
    engine = IncrementalTreeSearch(np.zeros((n, n)), tree, frozenset(range(n)), k=2)
    rng, twin = random.Random(n), random.Random(n)
    for _ in range(5_000):
        assert engine.propose(rng) is not None
        position_a, position_b = twin.randrange(n), twin.randrange(n)
        if position_b == position_a:
            position_b = (position_a + 1) % n
        assert {engine._low, engine._high} == {position_a, position_b}
        assert engine._low < engine._high
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fallback_traffic_on_fig10_shape(seed):
    """The traffic the O(1) path is built for, counted not timed: on
    Fig. 10's search (n=211, f=70, 3,000 iterations) at most 0.40
    re-sorts and 0.45 rescans per proposal (1.00 and 1.93 before)."""
    n, f, iterations = 211, 70, 3000
    latency = latency_for(n, seed)
    rng = random.Random(seed)
    candidates = frozenset(range(n))
    engine = IncrementalTreeSearch(
        latency, random_tree(n, candidates, rng), candidates, default_k(n, f, 0)
    )
    schedule = AnnealingSchedule(
        iterations=iterations, initial_temperature=0.05, cooling=0.9995
    )
    assert anneal_incremental(engine, rng, schedule).iterations_used == iterations
    assert engine.resorts <= 0.40 * iterations
    assert engine.rescans <= 0.45 * iterations


def test_engine_rejects_a_latency_of_another_size():
    tree = TreeConfiguration.from_layout(range(13))
    with pytest.raises(ValueError, match="13 x 13"):
        IncrementalTreeSearch(latency_for(21), tree, frozenset(range(13)), k=9)


def test_position_structure_matches_children_blocks():
    """The shared (n, b) position structure must agree with the
    per-layout children mapping for imperfect sizes too."""
    for n in (4, 8, 16, 56, 57, 100):
        tree = TreeConfiguration.from_layout(range(n))
        spans, votes, subtree_of = tree_position_structure(n, tree.branch_factor)
        for index, intermediate in enumerate(tree.intermediates):
            begin, end = spans[index]
            assert tree.children[intermediate] == tree.layout[begin:end]
            assert votes[index] == tree.subtree_size(intermediate)
            assert subtree_of[1 + index] == index
            for position in range(begin, end):
                assert subtree_of[position] == index
        assert subtree_of[0] == -1


def test_kauri_sa_candidates_cached_and_invalidated():
    latency = latency_for(21)
    reconfigurer = KauriSaReconfigurer(
        latency,
        21,
        6,
        rng=random.Random(5),
        schedule=AnnealingSchedule(iterations=100, initial_temperature=0.05),
    )
    first = reconfigurer.candidates
    assert reconfigurer.candidates is first  # cached, not rebuilt per access
    tree = reconfigurer.next_tree()
    assert reconfigurer.candidates is first  # forming a tree changes nothing
    reconfigurer.tree_failed(tree)
    updated = reconfigurer.candidates
    assert updated is not first
    assert updated == first - tree.internal_nodes
    assert reconfigurer.candidates is updated


def test_kauri_sa_sequence_unchanged_by_caching():
    """The annealed tree sequence is identical to an uncached run (the
    cache must not perturb the rng stream or the candidate sets)."""
    latency = latency_for(21)
    schedule = AnnealingSchedule(iterations=150, initial_temperature=0.05)

    def sequence():
        reconfigurer = KauriSaReconfigurer(
            latency, 21, 6, rng=random.Random(5), schedule=schedule
        )
        trees = []
        while True:
            tree = reconfigurer.next_tree()
            if tree is None:
                return trees
            trees.append(tree.layout)
            reconfigurer.tree_failed(tree)

    assert sequence() == sequence()
