"""Tests for independent-set computation, including hypothesis checks."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import is_independent_set
from repro.optimize.graphs import Graph
from repro.optimize.maxindset import greedy_independent_set, maximum_independent_set


def star(center: int, leaves) -> Graph:
    graph = Graph()
    for leaf in leaves:
        graph.add_edge(center, leaf)
    return graph


def test_empty_graph():
    assert maximum_independent_set(Graph()) == frozenset()


def test_isolated_vertices_all_selected():
    graph = Graph(vertices=[1, 2, 3])
    assert maximum_independent_set(graph) == {1, 2, 3}


def test_star_excludes_center():
    graph = star(0, range(1, 6))
    assert maximum_independent_set(graph) == {1, 2, 3, 4, 5}


def test_triangle_keeps_one():
    graph = Graph(edges=[(0, 1), (1, 2), (0, 2)])
    result = maximum_independent_set(graph)
    assert len(result) == 1
    assert result == {0}  # deterministic lexicographic tie-break


def test_path_graph_alternating():
    graph = Graph(edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
    result = maximum_independent_set(graph)
    assert result == {0, 2, 4}


def test_greedy_is_maximal_independent():
    rng = random.Random(3)
    graph = Graph(vertices=range(30))
    for _ in range(60):
        a, b = rng.sample(range(30), 2)
        graph.add_edge(a, b)
    greedy = greedy_independent_set(graph)
    assert is_independent_set(graph, greedy)
    # Maximality: every vertex outside is adjacent to a chosen one.
    for vertex in graph.vertices():
        if vertex not in greedy:
            assert any(graph.has_edge(vertex, chosen) for chosen in greedy)


@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=30)) if pairs else []
    return Graph(vertices=range(n), edges=edges)


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_exact_mis_is_independent_and_not_smaller_than_greedy(graph):
    exact = maximum_independent_set(graph)
    greedy = greedy_independent_set(graph)
    assert is_independent_set(graph, exact)
    assert is_independent_set(graph, greedy)
    assert len(exact) >= len(greedy)


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_exact_mis_deterministic(graph):
    assert maximum_independent_set(graph) == maximum_independent_set(graph)
