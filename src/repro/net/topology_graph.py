"""Graph topology latency backend: real internet graphs as base tables.

Ingests an internet topology graph -- GML (the format Internet Topology
Zoo and the monerosim/Shadow pipeline use) or a plain edge list -- and
derives the inter-region RTT table of a
:class:`~repro.net.latency_model.LatencyModel` from **shortest
paths over the graph's nodes** (the "region gateways"): traffic between
two regions follows the cheapest multi-hop route through the backbone,
not the great circle.

Edge cost (RTT milliseconds) comes from, in order of preference:

* an explicit ``latency`` / ``delay`` / ``rtt`` / ``weight`` edge
  attribute (interpreted as ms);
* the haversine distance between the endpoints' coordinates times
  ``MS_PER_KM`` (propagation only -- the ``LOCAL_RTT_MS`` floor is added
  once per *path*, matching the distance model's envelope, not once per
  hop).

The parsers are deliberately small: GML's ``key value`` / nested-block
grammar and whitespace edge lists cover the real datasets without
pulling in a graph library (the container has none to add).
"""

from __future__ import annotations

import random
import re
from heapq import heappop, heappush
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.cities import City
from repro.net.geo import haversine_km
from repro.net.latency_model import LOCAL_RTT_MS, MS_PER_KM, LatencyModel

#: Bundled example graph (an abstracted intercontinental backbone) so
#: ``topo-N`` deployments work out of the box.
EXAMPLE_GRAPH = Path(__file__).with_name("data") / "example_topology.gml"

#: Edge attributes accepted as RTT milliseconds, in preference order.
_EDGE_LATENCY_KEYS = ("latency", "delay", "rtt", "weight")

#: Node attributes accepted as coordinates.
_LAT_KEYS = ("lat", "latitude")
_LON_KEYS = ("lon", "longitude")
_LABEL_KEYS = ("label", "name")


class TopologyGraph:
    """A parsed topology: labelled nodes and undirected weighted edges."""

    def __init__(
        self,
        labels: Sequence[str],
        coords: Sequence[Optional[Tuple[float, float]]],
        edges: Sequence[Tuple[int, int, float]],
    ):
        self.labels = list(labels)
        self.coords = list(coords)
        #: ``(u, v, rtt_ms)`` with node indices into ``labels``.
        self.edges = list(edges)

    @property
    def node_count(self) -> int:
        return len(self.labels)

    def adjacency(self) -> List[List[Tuple[int, float]]]:
        adj: List[List[Tuple[int, float]]] = [[] for _ in self.labels]
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
_GML_TOKEN = re.compile(r'"[^"]*"|\[|\]|[^\s\[\]]+')


def _parse_gml(text: str) -> TopologyGraph:
    """Minimal GML reader: ``node``/``edge`` blocks with scalar attrs.

    Handles nested blocks (skipped generically), quoted strings and
    numeric literals; enough for Topology Zoo files and the Shadow-style
    graphs the monerosim pipeline feeds.
    """
    tokens = _GML_TOKEN.findall(text)
    pos = 0

    def parse_block() -> Dict[str, object]:
        nonlocal pos
        block: Dict[str, object] = {}
        while pos < len(tokens):
            token = tokens[pos]
            if token == "]":
                pos += 1
                return block
            key = token.lower()
            pos += 1
            if pos >= len(tokens):
                break
            value = tokens[pos]
            if value == "[":
                pos += 1
                inner = parse_block()
                existing = block.setdefault(key, [])
                if isinstance(existing, list):
                    existing.append(inner)
            else:
                pos += 1
                if value.startswith('"'):
                    block[key] = value.strip('"')
                else:
                    try:
                        block[key] = float(value) if "." in value or "e" in value.lower() else int(value)
                    except ValueError:
                        block[key] = value
        return block

    top = parse_block()
    graph = top.get("graph")
    if isinstance(graph, list) and graph:
        graph = graph[0]
    if not isinstance(graph, dict):
        raise ValueError("GML input has no 'graph' block")

    raw_nodes = graph.get("node", [])
    raw_edges = graph.get("edge", [])
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise ValueError("GML graph has no nodes")
    index_of: Dict[object, int] = {}
    labels: List[str] = []
    coords: List[Optional[Tuple[float, float]]] = []
    for node in raw_nodes:
        node_id = node.get("id", len(labels))
        index_of[node_id] = len(labels)
        label = None
        for key in _LABEL_KEYS:
            if key in node:
                label = str(node[key])
                break
        labels.append(label if label is not None else f"node{node_id}")
        lat = next((node[k] for k in _LAT_KEYS if k in node), None)
        lon = next((node[k] for k in _LON_KEYS if k in node), None)
        if isinstance(lat, (int, float)) and isinstance(lon, (int, float)):
            coords.append((float(lat), float(lon)))
        else:
            coords.append(None)
    edges: List[Tuple[int, int, float]] = []
    for edge in raw_edges if isinstance(raw_edges, list) else []:
        try:
            u = index_of[edge["source"]]
            v = index_of[edge["target"]]
        except KeyError as exc:
            raise ValueError(f"GML edge references unknown node: {exc}")
        edges.append((u, v, _edge_ms(edge, coords[u], coords[v])))
    return TopologyGraph(labels, coords, edges)


def _parse_edge_list(text: str) -> TopologyGraph:
    """``src dst [rtt_ms]`` per line; ``#`` comments; labels are free
    strings (AS numbers, city names) mapped to indices on first sight."""
    index_of: Dict[str, int] = {}
    labels: List[str] = []
    edges: List[Tuple[int, int, float]] = []

    def node(label: str) -> int:
        idx = index_of.get(label)
        if idx is None:
            idx = len(labels)
            index_of[label] = idx
            labels.append(label)
        return idx

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise ValueError(f"edge line needs 'src dst [rtt_ms]': {raw!r}")
        u = node(parts[0])
        v = node(parts[1])
        if len(parts) >= 3:
            weight = float(parts[2])
        else:
            raise ValueError(
                f"edge {parts[0]}-{parts[1]} has no latency and edge-list "
                "nodes carry no coordinates to derive one"
            )
        edges.append((u, v, weight))
    if not labels:
        raise ValueError("edge-list input has no edges")
    return TopologyGraph(labels, [None] * len(labels), edges)


def _edge_ms(
    attrs: Dict[str, object],
    a: Optional[Tuple[float, float]],
    b: Optional[Tuple[float, float]],
) -> float:
    for key in _EDGE_LATENCY_KEYS:
        value = attrs.get(key)
        if isinstance(value, (int, float)):
            return float(value)
    if a is not None and b is not None:
        return haversine_km(a[0], a[1], b[0], b[1]) * MS_PER_KM
    raise ValueError(
        "edge has no latency attribute and its endpoints have no "
        "coordinates to derive one"
    )


def load_graph(path) -> TopologyGraph:
    """Load a topology graph from ``path`` (GML or edge list).

    Format is chosen by extension (``.gml``) with a content sniff
    fallback (a leading ``graph [`` block means GML).
    """
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".gml" or re.match(r"\s*(#[^\n]*\n\s*)*graph\s*\[", text):
        return _parse_gml(text)
    return _parse_edge_list(text)


# ----------------------------------------------------------------------
# Shortest paths -> inter-region base table
# ----------------------------------------------------------------------
def shortest_path_ms(graph: TopologyGraph) -> np.ndarray:
    """All-pairs shortest-path RTT (ms) over the graph's gateways.

    Dijkstra from every node (r is small -- tens to a few hundred
    gateways -- so r * E log r is instant).  The returned table adds the
    ``LOCAL_RTT_MS`` floor once per distinct pair, mirroring the
    distance model's ``LOCAL_RTT_MS + km * MS_PER_KM`` envelope, and has
    a zero diagonal.  Raises if the graph is disconnected: a partitioned
    topology cannot serve as a latency substrate.
    """
    r = graph.node_count
    adj = graph.adjacency()
    out = np.zeros((r, r), dtype=float)
    for source in range(r):
        dist = [float("inf")] * r
        dist[source] = 0.0
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heappush(heap, (nd, v))
        unreachable = [i for i, d in enumerate(dist) if d == float("inf")]
        if unreachable:
            raise ValueError(
                f"topology graph is disconnected: {graph.labels[source]!r} "
                f"cannot reach {len(unreachable)} nodes "
                f"(first: {graph.labels[unreachable[0]]!r})"
            )
        row = np.array(dist, dtype=float) + LOCAL_RTT_MS
        row[source] = 0.0
        out[source] = row
    # Undirected edges make Dijkstra symmetric up to float association
    # order; mirror the upper triangle so the table is symmetric by
    # copy, exactly like the dense matrix construction.
    upper = np.triu_indices(r, k=1)
    out[(upper[1], upper[0])] = out[upper]
    return out


# ----------------------------------------------------------------------
# Deployments over a graph
# ----------------------------------------------------------------------
def graph_cities(graph: TopologyGraph) -> List[City]:
    """One synthetic ``City`` per gateway (coords default to 0, 0)."""
    cities = []
    for label, coord in zip(graph.labels, graph.coords):
        lat, lon = coord if coord is not None else (0.0, 0.0)
        cities.append(City(label, "NET", lat, lon, "NET"))
    return cities


def graph_latency_model(
    graph: TopologyGraph,
    regions: Sequence[int],
    offsets_km: Optional[Sequence[float]] = None,
) -> LatencyModel:
    """Latency model whose base table is the graph's shortest paths."""
    gateway_cities = graph_cities(graph)
    cities = [gateway_cities[r] for r in regions]
    return LatencyModel(
        cities,
        offsets_km=offsets_km,
        regions=list(regions),
        base_ms=shortest_path_ms(graph),
    )


def assign_replicas(
    graph: TopologyGraph,
    n: int,
    rng: random.Random,
    jitter_km: float = 0.0,
) -> Tuple[List[int], List[float]]:
    """Deterministic replica placement over the graph's gateways.

    The first ``min(n, r)`` replicas cover a random permutation of the
    gateways (every region is populated before any repeats); the rest
    draw uniformly.  Repeat placements get an intra-region offset in
    ``[0, jitter_km]`` from a generator *derived* from ``rng`` (the
    ``derive_rng`` idiom), so enabling jitter never perturbs the
    placement draw sequence.
    """
    r = graph.node_count
    order = list(range(r))
    rng.shuffle(order)
    regions = [order[i] for i in range(min(n, r))]
    regions += [rng.choice(order) for _ in range(n - len(regions))]
    jitter_rng = random.Random(f"{rng.random()}:topo-jitter")
    offsets: List[float] = []
    seen: set = set()
    for region in regions:
        if region in seen and jitter_km > 0.0:
            offsets.append(jitter_rng.uniform(0.0, jitter_km))
        else:
            offsets.append(0.0)
            seen.add(region)
    return regions, offsets


def topology_deployment(
    n: int,
    rng: Optional[random.Random] = None,
    name: Optional[str] = None,
    path=None,
    jitter_km: float = 0.0,
):
    """A ``Deployment`` of ``n`` replicas over a topology graph.

    Loads ``path`` (the bundled :data:`EXAMPLE_GRAPH` by default),
    derives the inter-region table from shortest paths, places replicas
    with :func:`assign_replicas` and wraps the result in the standard
    ``Deployment`` API.
    """
    from repro.net.deployments import Deployment, check_placement

    check_placement(n, jitter_km)
    rng = rng or random.Random(0)
    graph = load_graph(path or EXAMPLE_GRAPH)
    regions, offsets = assign_replicas(graph, n, rng, jitter_km=jitter_km)
    model = graph_latency_model(graph, regions, offsets)
    return Deployment(
        name=name or f"Topo{n}", cities=model.cities, latency=model
    )
