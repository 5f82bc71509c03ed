"""Maximum independent set computation (§4.2.3, Fig. 8).

The SuspicionMonitor derives its candidate set ``K`` as a maximum
independent set of the suspicion graph.  The paper computes it "using a
heuristic variant of the Bron-Kerbosch algorithm, which detects cliques on
the inverted graph"; an independent set in ``G`` is exactly a clique in the
complement of ``G``.

Two implementations are provided:

* :func:`maximum_independent_set` -- exact Bron-Kerbosch with pivoting on
  the complement graph; deterministic tie-breaking (largest set, then
  lexicographically smallest vertex tuple) so every replica computes the
  same ``K``.
* :func:`greedy_independent_set` -- the min-degree greedy heuristic, used
  as the fast path for large graphs and as a comparison point in the
  scalability study (Fig. 8).

Both run on **int-bitmask adjacency** (:meth:`Graph.adjacency_bitmasks`):
vertex sets become machine ints, set intersection becomes ``&``, degree
becomes a popcount.  The original set-based solvers are test oracles
(``tests/oracles.py``); the equivalence tests pin the bitset results to
them bit-for-bit (the tie-breaking rules translate exactly because bit
index order equals sorted vertex order).
"""

from __future__ import annotations

from typing import FrozenSet, List

from repro.optimize.graphs import Graph

try:  # Python >= 3.10
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover - exercised on 3.9 CI only
    def _popcount(mask: int) -> int:
        return bin(mask).count("1")


# ----------------------------------------------------------------------
# Bitset solvers (the production path)
# ----------------------------------------------------------------------
def _mask_lex_smaller(a: int, b: int) -> bool:
    """Is the vertex tuple of ``a`` lexicographically smaller than ``b``'s?

    For equal-popcount masks over the same index mapping, the sorted
    vertex tuples first differ at ``min(A xor B)``; the tuple owning that
    smallest differing element is the smaller one.
    """
    diff = a ^ b
    return bool(a & (diff & -diff))


def _max_clique_mask(adj: List[int], count: int) -> int:
    """Maximum clique over bitmask adjacency via Bron-Kerbosch with
    pivoting; ties between equal-sized cliques resolve to the
    lexicographically smallest vertex tuple (bit order == vertex order).
    """
    best_mask = 0
    best_size = 0

    def expand(r_mask: int, r_size: int, p_mask: int, x_mask: int) -> None:
        nonlocal best_mask, best_size
        if not p_mask and not x_mask:
            if r_size > best_size or (
                r_size == best_size and _mask_lex_smaller(r_mask, best_mask)
            ):
                best_mask = r_mask
                best_size = r_size
            return
        # Prune: even taking all of P cannot beat the current best.
        if r_size + _popcount(p_mask) < best_size:
            return
        # Pivot on the vertex of P ∪ X with the most neighbours in P
        # (smallest vertex wins ties: ascending scan, strict improvement).
        scan = p_mask | x_mask
        pivot_adj = 0
        pivot_best = -1
        while scan:
            low = scan & -scan
            scan ^= low
            vertex_adj = adj[low.bit_length() - 1]
            neighbors = _popcount(vertex_adj & p_mask)
            if neighbors > pivot_best:
                pivot_best = neighbors
                pivot_adj = vertex_adj
        candidates = p_mask & ~pivot_adj
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            vertex_adj = adj[low.bit_length() - 1]
            expand(r_mask | low, r_size + 1, p_mask & vertex_adj, x_mask & vertex_adj)
            p_mask &= ~low
            x_mask |= low

    expand(0, 0, (1 << count) - 1, 0)
    return best_mask


def _mask_to_vertices(mask: int, vertices: List[int]) -> FrozenSet[int]:
    chosen = []
    while mask:
        low = mask & -mask
        mask ^= low
        chosen.append(vertices[low.bit_length() - 1])
    return frozenset(chosen)


def maximum_independent_set_masks(
    vertices: List[int], masks: List[int]
) -> FrozenSet[int]:
    """Exact MIS over bitmask adjacency (the SuspicionMonitor's direct
    entry point -- no subgraph materialisation needed)."""
    count = len(vertices)
    if not count:
        return frozenset()
    full = (1 << count) - 1
    complement = [full ^ mask ^ (1 << i) for i, mask in enumerate(masks)]
    return _mask_to_vertices(_max_clique_mask(complement, count), vertices)


def maximum_independent_set(graph: Graph) -> FrozenSet[int]:
    """Exact maximum independent set with deterministic tie-breaking.

    Computed as a maximum clique of the complement graph.  Isolated
    vertices of ``graph`` are universal in the complement, so they always
    appear in the result, matching the intuition that an unsuspected
    replica is always a candidate.
    """
    vertices, masks = graph.adjacency_bitmasks()
    return maximum_independent_set_masks(vertices, masks)


def _greedy_component_mask(masks: List[int], alive: int, count: int) -> int:
    """Reference-equivalent greedy restricted to one alive set."""
    popcount = _popcount
    chosen = 0
    while alive:
        # Ascending scan + strict improvement = smallest vertex among the
        # minimum-degree ones, exactly the reference's (degree, id) min.
        zero_mask = 0
        best_low = 0
        best_adj = 0
        best_degree = count + 1
        scan = alive
        while scan:
            low = scan & -scan
            scan ^= low
            vertex_adj = masks[low.bit_length() - 1] & alive
            if not vertex_adj:
                zero_mask |= low
            elif not zero_mask and best_degree > 1:
                # Once a zero is on board (or a degree-1 pick is locked
                # in: ascending scan, strict improvement), no later
                # contested vertex can win -- skip its popcount.
                degree = popcount(vertex_adj)
                if degree < best_degree:
                    best_degree = degree
                    best_low = low
                    best_adj = vertex_adj
        if zero_mask:
            # Isolated vertices have no alive neighbours: removing them
            # changes no degree, so the reference picks exactly these
            # (ascending, one per round) before any contested vertex --
            # take them all at once.  ``best_low`` may be stale (its scan
            # stopped at the first zero), so contested picks wait for the
            # next pass.
            chosen |= zero_mask
            alive &= ~zero_mask
        else:
            chosen |= best_low
            alive &= ~(best_low | best_adj)
    return chosen


def greedy_independent_set_masks(
    vertices: List[int], masks: List[int]
) -> FrozenSet[int]:
    """Min-degree greedy over bitmask adjacency.

    Picks restricted to one connected component never change degrees in
    another, so the global (degree, id)-min pick order restricted to a
    component is exactly that component's own greedy order -- the result
    is the union of per-component runs.  Suspicion graphs decompose into
    many small components, so solving per component (isolated vertices
    up front, then a bitmask BFS per component) shrinks every scan from
    |V| to the component size while staying bit-equal to the reference.
    """
    count = len(vertices)
    if not count:
        return frozenset()
    chosen_mask = 0
    remaining = 0
    for i, mask in enumerate(masks):
        if not mask:
            chosen_mask |= 1 << i  # isolated: always chosen
        else:
            remaining |= 1 << i
    while remaining:
        seed = remaining & -remaining
        component = seed
        frontier = seed
        while frontier:
            neighborhood = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                neighborhood |= masks[low.bit_length() - 1]
            frontier = neighborhood & remaining & ~component
            component |= frontier
        remaining &= ~component
        chosen_mask |= _greedy_component_mask(masks, component, count)
    return _mask_to_vertices(chosen_mask, vertices)


def greedy_independent_set(graph: Graph) -> FrozenSet[int]:
    """Min-degree greedy heuristic for a large independent set.

    Deterministic: ties on degree resolve to the smallest vertex id.  The
    result is maximal (cannot be extended) but not necessarily maximum.
    """
    vertices, masks = graph.adjacency_bitmasks()
    return greedy_independent_set_masks(vertices, masks)
