"""Tree candidate selection: the E_d / T rule (§6.4).

A tree only needs ``b + 1 ≈ √n`` internal nodes, so OptiTree swaps the
maximum-independent-set candidate rule for one that excludes *fewer*
replicas per suspicion yet guarantees faulty replicas are expelled within
``2f`` reconfigurations (Theorem D.2):

* ``E_d``: a maximal set of vertex-disjoint edges of the suspicion graph
  ``G``, maintained with the paper's augmenting step (an incoming edge may
  replace one matched edge by two).  Every edge has at least one faulty
  endpoint, so both endpoints are excluded.
* ``T``: vertices not covered by ``E_d`` that form a triangle with an
  ``E_d`` edge -- also excluded.
* ``K = V \\ V(E_d) \\ T`` and ``u = |E_d| + |T|``.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.log import AppendOnlyLog
from repro.core.misbehavior import MisbehaviorMonitor
from repro.core.suspicion import SuspicionMonitor
from repro.optimize.graphs import Edge, Graph, ordered_edge


def build_disjoint_edge_set(
    graph: Graph, edge_order: Iterable[Edge]
) -> List[Edge]:
    """Maximal disjoint edge set, processing edges in arrival order.

    Implements the §6.4 maintenance rule: when a new edge cannot join
    ``E_d`` directly (an endpoint is already matched), try the augmenting
    exchange -- remove one matched edge and add two new disjoint ones.
    Edges in ``edge_order`` not present in ``graph`` are skipped, which
    lets callers replay a suspicion history against a pruned graph.
    """
    matched: dict[int, Edge] = {}  # vertex -> its E_d edge
    e_d: List[Edge] = []

    def try_add(a: int, b: int) -> bool:
        if a in matched or b in matched:
            return False
        edge = ordered_edge(a, b)
        e_d.append(edge)
        matched[a] = edge
        matched[b] = edge
        return True

    def remove(edge: Edge) -> None:
        e_d.remove(edge)
        for vertex in edge:
            matched.pop(vertex, None)

    def augment(a: int, b: int) -> None:
        """a is matched, b is free: replace (a, c) by (a, b) + (c, d) if
        some graph edge (c, d) with d free and d != b exists."""
        old = matched[a]
        c = old[0] if old[1] == a else old[1]
        for d in graph.neighbors(c):
            if d != b and d != a and d not in matched:
                remove(old)
                try_add(a, b)
                try_add(c, d)
                return

    for raw in edge_order:
        a, b = ordered_edge(*raw)
        if not graph.has_edge(a, b):
            continue
        if ordered_edge(a, b) in e_d:
            continue
        if try_add(a, b):
            continue
        a_matched = a in matched
        b_matched = b in matched
        if a_matched and not b_matched:
            augment(a, b)
        elif b_matched and not a_matched:
            augment(b, a)
        # both matched: the edge stays only in G (it may create triangles).
    return e_d


def triangle_set(graph: Graph, e_d: List[Edge]) -> FrozenSet[int]:
    """T: uncovered vertices forming a triangle with an ``E_d`` edge."""
    covered: Set[int] = set()
    for a, b in e_d:
        covered.add(a)
        covered.add(b)
    members: Set[int] = set()
    for a, b in e_d:
        common = set(graph.neighbors(a)) & set(graph.neighbors(b))
        members.update(v for v in common if v not in covered)
    return frozenset(members)


def tree_candidates(
    graph: Graph, edge_order: Iterable[Edge]
) -> Tuple[FrozenSet[int], int, List[Edge], FrozenSet[int]]:
    """(K, u, E_d, T) for a suspicion graph per §6.4."""
    e_d = build_disjoint_edge_set(graph, edge_order)
    t_set = triangle_set(graph, e_d)
    covered = {v for edge in e_d for v in edge}
    candidates = frozenset(
        v for v in graph.vertices() if v not in covered and v not in t_set
    )
    u = len(e_d) + len(t_set)
    return candidates, u, e_d, t_set


class TreeSuspicionMonitor(SuspicionMonitor):
    """SuspicionMonitor variant computing candidates via E_d and T.

    Also exposes ``E_d`` and ``T`` for the reconfiguration-bound analysis
    (Appendix D).  The minimum candidate threshold is the number of
    internal nodes a tree needs (``b + 1``); Theorem D.1 shows suspicions
    alone can never push K below f + 1, so for n ≥ 13 eviction only
    triggers on pre-GST noise.
    """

    name = "tree-suspicion-monitor"

    def __init__(
        self,
        replica_id: int,
        log: AppendOnlyLog,
        n: int,
        f: int,
        misbehavior: Optional[MisbehaviorMonitor] = None,
        stability_window: int = 10,
        exact_mis_threshold: int = 25,
        internal_nodes_needed: Optional[int] = None,
    ):
        if internal_nodes_needed is None:
            from repro.tree.topology import branch_factor_for

            internal_nodes_needed = branch_factor_for(n) + 1
        self.internal_nodes_needed = internal_nodes_needed
        self.e_d: List[Edge] = []
        self.t_set: FrozenSet[int] = frozenset()
        self._pending_edge_order: Optional[List[Edge]] = None
        super().__init__(
            replica_id,
            log,
            n=n,
            f=f,
            misbehavior=misbehavior,
            stability_window=stability_window,
            exact_mis_threshold=exact_mis_threshold,
        )

    def _min_candidates(self) -> int:
        return self.internal_nodes_needed

    def _structure_key(self, vertices, edges) -> tuple:
        # E_d depends on the *arrival order* of effective edges, not just
        # the graph, so the derive-skip fingerprint must include it.  The
        # order is stashed for the _derive call that may follow in the
        # same refresh iteration (items cannot change in between), so a
        # cache miss does not walk the item deque twice.
        order = [
            ordered_edge(item.reporter, item.suspect)
            for item in self._effective_items()
            if not item.one_way
        ]
        self._pending_edge_order = order
        base = super()._structure_key(vertices, edges)
        return base + (tuple(order),)

    def _derive(self, graph: Graph) -> Tuple[FrozenSet[int], int]:
        # The order _structure_key stashed in this refresh iteration,
        # consumed so no stale list outlives it.
        order = self._pending_edge_order
        self._pending_edge_order = None
        candidates, u, e_d, t_set = tree_candidates(graph, order)
        self.e_d = e_d
        self.t_set = t_set
        return candidates, u
