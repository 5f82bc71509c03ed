"""Bitset MIS solvers pinned bit-for-bit to the set-based references.

The production :func:`maximum_independent_set` / \
:func:`greedy_independent_set` run on int-bitmask adjacency (PR 5); the
pre-bitset implementations are test oracles (``tests/oracles.py``) and these
tests assert exact equality -- same set, including all deterministic
tie-breaks -- across random graph families, plus the mask-level API and
the adjacency-bitmask memoization.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    greedy_independent_set_reference,
    is_independent_set,
    maximum_independent_set_reference,
)
from repro.optimize.graphs import Graph
from repro.optimize.maxindset import (
    greedy_independent_set,
    greedy_independent_set_masks,
    maximum_independent_set,
    maximum_independent_set_masks,
)


def er_graph(n, p, rng, vertex_offset=0):
    graph = Graph(vertices=(v + vertex_offset for v in range(n)))
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                graph.add_edge(a + vertex_offset, b + vertex_offset)
    return graph


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=16))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
    return Graph(vertices=range(n), edges=edges)


@given(random_graphs())
@settings(max_examples=80, deadline=None)
def test_exact_bitset_equals_reference(graph):
    assert maximum_independent_set(graph) == maximum_independent_set_reference(
        graph
    )


@given(random_graphs())
@settings(max_examples=80, deadline=None)
def test_greedy_bitset_equals_reference(graph):
    assert greedy_independent_set(graph) == greedy_independent_set_reference(
        graph
    )


def test_equivalence_across_densities_and_sizes():
    """Sweep sparse (component-structured) through dense graphs: the
    component-wise greedy and the pruned Bron-Kerbosch must stay equal
    to the references everywhere."""
    rng = random.Random(7)
    for n in (1, 2, 5, 13, 24, 33, 48):
        for p in (0.02, 0.1, 0.3, 0.5, 0.9):
            graph = er_graph(n, p, rng)
            greedy = greedy_independent_set(graph)
            assert greedy == greedy_independent_set_reference(graph), (n, p)
            assert is_independent_set(graph, greedy)
            if n <= 24:
                exact = maximum_independent_set(graph)
                assert exact == maximum_independent_set_reference(graph), (n, p)
                assert is_independent_set(graph, exact)
                assert len(exact) >= len(greedy)


def test_noncontiguous_vertex_ids():
    """Bit index order is the *sorted vertex* order, so arbitrary ids
    (the monitor excludes crashed/faulty vertices) must round-trip."""
    rng = random.Random(3)
    graph = er_graph(12, 0.4, rng, vertex_offset=100)
    graph.add_vertex(7)  # a small id sorting before the offset block
    assert maximum_independent_set(graph) == maximum_independent_set_reference(
        graph
    )
    assert greedy_independent_set(graph) == greedy_independent_set_reference(
        graph
    )


def test_mask_level_api_matches_graph_level():
    rng = random.Random(11)
    graph = er_graph(18, 0.3, rng)
    vertices, masks = graph.adjacency_bitmasks()
    assert maximum_independent_set_masks(vertices, masks) == (
        maximum_independent_set(graph)
    )
    assert greedy_independent_set_masks(vertices, masks) == (
        greedy_independent_set(graph)
    )


def test_adjacency_bitmasks_shape_and_restriction():
    graph = Graph(edges=[(0, 1), (1, 2), (5, 0)])
    graph.add_vertex(9)
    vertices, masks = graph.adjacency_bitmasks()
    assert vertices == [0, 1, 2, 5, 9]
    index = {v: i for i, v in enumerate(vertices)}
    assert masks[index[0]] == (1 << index[1]) | (1 << index[5])
    assert masks[index[9]] == 0
    # Induced restriction drops edges leaving the kept set.
    kept, kept_masks = graph.adjacency_bitmasks(keep=[0, 1, 9])
    assert kept == [0, 1, 9]
    assert kept_masks == [0b010, 0b001, 0]


def test_adjacency_bitmasks_memo_invalidated_on_mutation():
    graph = Graph(edges=[(0, 1)])
    first = graph.adjacency_bitmasks()
    assert graph.adjacency_bitmasks() is first  # memo hit
    graph.add_edge(1, 2)
    vertices, masks = graph.adjacency_bitmasks()
    assert vertices == [0, 1, 2]
    assert masks == [0b010, 0b101, 0b010]
    graph.add_vertex(3)
    vertices, masks = graph.adjacency_bitmasks()
    assert vertices == [0, 1, 2, 3]
    assert masks == [0b0010, 0b0101, 0b0010, 0]
    graph.add_edges([(0, 3)])
    vertices, masks = graph.adjacency_bitmasks()
    assert vertices == [0, 1, 2, 3]
    assert masks[0] == 0b1010
