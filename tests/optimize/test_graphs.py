"""Tests for the deterministic graph type."""

import pytest

from repro.optimize.graphs import Graph, ordered_edge


def test_ordered_edge_canonical():
    assert ordered_edge(3, 1) == (1, 3)
    assert ordered_edge(1, 3) == (1, 3)
    with pytest.raises(ValueError):
        ordered_edge(2, 2)


def test_add_edge_creates_vertices():
    graph = Graph()
    graph.add_edge(5, 2)
    assert graph.vertices() == [2, 5]
    assert graph.has_edge(2, 5)
    assert graph.has_edge(5, 2)


def test_edges_sorted_and_unique():
    graph = Graph(edges=[(3, 1), (1, 3), (2, 1)])
    assert graph.edges() == [(1, 2), (1, 3)]
    assert graph.edge_count() == 2


def test_complement_inverts_adjacency():
    graph = Graph(vertices=[1, 2, 3], edges=[(1, 2)])
    comp = graph.complement()
    assert comp.edges() == [(1, 3), (2, 3)]


def test_degree_and_neighbors_sorted():
    graph = Graph(edges=[(5, 1), (5, 3), (5, 2)])
    assert graph.neighbors(5) == [1, 2, 3]
    assert graph.degree(5) == 3
    assert graph.degree(1) == 1


def test_copy_is_independent():
    graph = Graph(edges=[(1, 2)])
    clone = graph.copy()
    clone.add_edge(2, 3)
    assert not graph.has_edge(2, 3)
