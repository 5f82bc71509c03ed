"""Small deterministic undirected-graph type for suspicion graphs.

The suspicion graph ``G`` (§4.2.3) has replicas as vertices and two-way
suspicions as edges.  Candidate selection needs deterministic iteration
(all replicas must compute identical candidate sets), so every accessor
returns sorted data.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

Edge = Tuple[int, int]


def ordered_edge(a: int, b: int) -> Edge:
    """Canonical (low, high) form of an undirected edge."""
    if a == b:
        raise ValueError(f"self-loop on {a}")
    return (a, b) if a < b else (b, a)


class Graph:
    """Undirected graph with deterministic, sorted iteration order."""

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[Edge] = ()):
        self._adj: Dict[int, Set[int]] = {}
        self._bitmasks: Optional[Tuple[List[int], List[int]]] = None
        for vertex in vertices:
            self.add_vertex(vertex)
        for a, b in edges:
            self.add_edge(a, b)

    @classmethod
    def from_parts(cls, vertices: Iterable[int], edges: Iterable[Edge]) -> "Graph":
        """Build from known-good parts: distinct vertices, canonical
        (low, high) edges over those vertices.  Skips the per-call
        validation of :meth:`add_edge` -- the SuspicionMonitor's refresh
        path, where both invariants hold by construction.
        """
        graph = cls.__new__(cls)
        adj = graph._adj = {vertex: set() for vertex in vertices}
        graph._bitmasks = None
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        return graph

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertex(self, v: int) -> None:
        if v not in self._adj:
            self._adj[v] = set()
            self._bitmasks = None

    def add_edge(self, a: int, b: int) -> None:
        a, b = ordered_edge(a, b)
        self.add_vertex(a)
        self.add_vertex(b)
        self._adj[a].add(b)
        self._adj[b].add(a)
        self._bitmasks = None

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Bulk :meth:`add_edge` with the per-edge lookups hoisted (the
        vectorized Erdős–Rényi generator's fill path)."""
        adj = self._adj
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on {a}")
            bucket_a = adj.get(a)
            if bucket_a is None:
                bucket_a = adj[a] = set()
            bucket_b = adj.get(b)
            if bucket_b is None:
                bucket_b = adj[b] = set()
            bucket_a.add(b)
            bucket_b.add(a)
        self._bitmasks = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __contains__(self, v: int) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adj.get(a, set())

    def vertices(self) -> List[int]:
        return sorted(self._adj)

    def edges(self) -> List[Edge]:
        result = [
            (a, b) for a in self._adj for b in self._adj[a] if a < b
        ]
        return sorted(result)

    def neighbors(self, v: int) -> List[int]:
        return sorted(self._adj.get(v, set()))

    def degree(self, v: int) -> int:
        return len(self._adj.get(v, set()))

    def edge_count(self) -> int:
        return sum(len(neighbors) for neighbors in self._adj.values()) // 2

    def adjacency_bitmasks(
        self, keep: Optional[Iterable[int]] = None
    ) -> Tuple[List[int], List[int]]:
        """(vertices, masks): int-bitmask adjacency for the MIS solvers.

        ``vertices`` is sorted (so bit index order equals vertex order --
        the property the solvers' deterministic tie-breaking relies on)
        and ``masks[i]`` has bit ``j`` set iff ``vertices[i]`` and
        ``vertices[j]`` are adjacent.  ``keep`` restricts to an induced
        subgraph without materialising a :class:`Graph` for it.  The
        full (``keep=None``) adjacency is memoized until the next
        mutation -- the suspicion monitor reads it once per candidate
        derivation.
        """
        if keep is None:
            if self._bitmasks is not None:
                return self._bitmasks
            vertices = sorted(self._adj)
        else:
            keep_set = set(keep)
            vertices = sorted(v for v in self._adj if v in keep_set)
        count = len(vertices)
        masks = [0] * count
        if keep is None and count and vertices[0] == 0 and vertices[-1] == count - 1:
            # Sorted distinct ints spanning 0..count-1 are exactly
            # range(count): bit index == vertex id, no index map needed
            # (the common case -- fresh monitor graphs, ER pools).
            adj = self._adj
            for i in range(count):
                mask = 0
                for neighbor in adj[i]:
                    mask |= 1 << neighbor
                masks[i] = mask
        else:
            index = {v: i for i, v in enumerate(vertices)}
            for i, v in enumerate(vertices):
                mask = 0
                for neighbor in self._adj[v]:
                    j = index.get(neighbor)
                    if j is not None:
                        mask |= 1 << j
                masks[i] = mask
        result = (vertices, masks)
        if keep is None:
            self._bitmasks = result
        return result

    def complement(self) -> "Graph":
        verts = self.vertices()
        comp = Graph(vertices=verts)
        for i, a in enumerate(verts):
            for b in verts[i + 1 :]:
                if not self.has_edge(a, b):
                    comp.add_edge(a, b)
        return comp

    def copy(self) -> "Graph":
        clone = Graph(vertices=self._adj)
        for a, b in self.edges():
            clone.add_edge(a, b)
        return clone

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(|V|={len(self)}, |E|={self.edge_count()})"
