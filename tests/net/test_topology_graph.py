"""Tests for the graph topology latency backend."""

import random

import numpy as np
import pytest

from oracles import verify_self_consistent
from repro.net.latency_model import LOCAL_RTT_MS
from repro.net.topology_graph import (
    EXAMPLE_GRAPH,
    TopologyGraph,
    assign_replicas,
    graph_latency_model,
    load_graph,
    shortest_path_ms,
)


def test_example_graph_loads():
    graph = load_graph(EXAMPLE_GRAPH)
    assert graph.node_count == 12
    assert "nyc" in graph.labels and "sin" in graph.labels
    assert len(graph.edges) == 14


def test_shortest_paths_symmetric_zero_diagonal():
    graph = load_graph(EXAMPLE_GRAPH)
    base = shortest_path_ms(graph)
    assert np.array_equal(base, base.T)
    assert not base.diagonal().any()


def test_shortest_path_beats_direct_edge():
    # nyc->sin: the Pacific route (18+42+102+48+34) beats the Atlantic
    # one (70+12+110+58); one LOCAL_RTT_MS floor per path.
    graph = load_graph(EXAMPLE_GRAPH)
    base = shortest_path_ms(graph)
    nyc = graph.labels.index("nyc")
    sin = graph.labels.index("sin")
    assert base[nyc][sin] == 244.0 + LOCAL_RTT_MS


def test_disconnected_graph_rejected(tmp_path):
    path = tmp_path / "parts.txt"
    path.write_text("a b 10\nc d 10\n")
    with pytest.raises(ValueError, match="disconnected"):
        shortest_path_ms(load_graph(path))


def test_edge_list_parsing(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# backbone\na b 10\nb c 20  # tail comment\n")
    graph = load_graph(path)
    assert graph.labels == ["a", "b", "c"]
    base = shortest_path_ms(graph)
    assert base[0][2] == 30.0 + LOCAL_RTT_MS


def test_edge_list_requires_latency(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("a b\n")
    with pytest.raises(ValueError, match="latency"):
        load_graph(path)


def test_gml_haversine_fallback(tmp_path):
    path = tmp_path / "geo.gml"
    path.write_text(
        "graph [\n"
        '  node [ id 0 label "x" lat 0.0 lon 0.0 ]\n'
        '  node [ id 1 label "y" lat 0.0 lon 1.0 ]\n'
        "  edge [ source 0 target 1 ]\n"
        "]\n"
    )
    graph = load_graph(path)
    base = shortest_path_ms(graph)
    # ~111 km of propagation at 0.0125 ms/km, plus the per-path floor.
    assert LOCAL_RTT_MS + 1.0 < base[0][1] < LOCAL_RTT_MS + 2.0


def test_assign_replicas_covers_then_repeats():
    graph = load_graph(EXAMPLE_GRAPH)
    regions, offsets = assign_replicas(graph, 40, random.Random(0))
    assert len(set(regions[:12])) == 12  # full coverage before repeats
    assert all(v == 0.0 for v in offsets)  # no jitter by default


def test_assign_replicas_deterministic_and_jitter_derived():
    graph = load_graph(EXAMPLE_GRAPH)
    a = assign_replicas(graph, 40, random.Random(5), jitter_km=80.0)
    b = assign_replicas(graph, 40, random.Random(5), jitter_km=80.0)
    assert a == b
    plain, _ = assign_replicas(graph, 40, random.Random(5))
    assert a[0] == plain  # jitter never perturbs the placement draws
    # First occupant of each region stays at the anchor; repeats jitter.
    seen = set()
    for region, offset in zip(a[0], a[1]):
        if region not in seen:
            assert offset == 0.0
            seen.add(region)
        else:
            assert 0.0 <= offset <= 80.0


def test_graph_latency_model_consistent():
    graph = load_graph(EXAMPLE_GRAPH)
    regions, offsets = assign_replicas(graph, 64, random.Random(1), jitter_km=50.0)
    model = graph_latency_model(graph, regions, offsets)
    assert len(model) == 64
    assert model.region_count == 12
    verify_self_consistent(model, random.Random(2), samples=256)
    # Same-node zero-offset pairs collapse to the local RTT.
    first = {}
    for i, region in enumerate(regions):
        if region in first and offsets[i] == 0.0 and offsets[first[region]] == 0.0:
            assert model.rtt_ms(first[region], i) == LOCAL_RTT_MS
        first.setdefault(region, i)


def test_adjacency_undirected():
    graph = TopologyGraph(["a", "b"], [None, None], [(0, 1, 5.0)])
    adj = graph.adjacency()
    assert adj[0] == [(1, 5.0)] and adj[1] == [(0, 5.0)]
