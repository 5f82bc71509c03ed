"""Tree configurations (§6.1, §7.3).

All evaluation trees have height 3: a root, ``b`` intermediate nodes, and
``b²`` leaves, with the branch factor ``b = (√(4n-3) - 1) / 2`` so that
``n = 1 + b + b²`` exactly (all configuration sizes used in the paper --
13, 21, 43, 57, 73, 91, 111, 157, 183, 211 -- are such perfect sizes).
Sizes in between are supported by distributing the remaining replicas as
evenly as possible among the intermediates (Stellar's n = 56 needs this).

A :class:`TreeConfiguration` is a *layout*: a permutation of replica ids
over tree positions.  Position 0 is the root, positions 1..b the
intermediates, and the rest leaves, assigned to intermediates in blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, FrozenSet, Iterable, List, Tuple

import numpy as np

from repro.core.records import RECORD_HEADER_SIZE, Configuration


def branch_factor_for(n: int) -> int:
    """The paper's branch-factor rule ``b = (√(4n-3) - 1) / 2``, rounded
    down so that a height-3 tree with ``b`` intermediates fits ``n``."""
    if n < 4:
        raise ValueError(f"need at least 4 replicas for a tree, got {n}")
    return int((math.isqrt(4 * n - 3) - 1) // 2)


@lru_cache(maxsize=None)
def tree_position_structure(
    n: int, branch_factor: int
) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...], Tuple[int, ...]]:
    """Layout-independent position structure of an (n, b) tree.

    Position 0 is the root, 1..b the intermediates, the rest leaves
    attached in blocks (the same split rule as
    :attr:`TreeConfiguration.children`).  Returns

    * ``spans``      -- per intermediate index, the ``[start, end)`` range
      of its leaf *positions*;
    * ``votes``      -- per intermediate index, ``|Ch(I)| + 1``;
    * ``subtree_of`` -- per position, the owning intermediate index
      (``-1`` for the root).

    Shared by every layout of the same shape, so the incremental search
    engine and the vectorized scorer look it up once per (n, b).
    """
    b = branch_factor
    leaf_count = n - 1 - b
    base, extra = divmod(leaf_count, b) if b else (0, 0)
    spans: List[Tuple[int, int]] = []
    start = 1 + b
    for index in range(b):
        size = base + (1 if index < extra else 0)
        spans.append((start, start + size))
        start += size
    votes = tuple(end - begin + 1 for begin, end in spans)
    subtree_of = [-1] * n
    for index in range(b):
        subtree_of[1 + index] = index
    for index, (begin, end) in enumerate(spans):
        for position in range(begin, end):
            subtree_of[position] = index
    return tuple(spans), votes, tuple(subtree_of)


@dataclass(frozen=True)
class TreeConfiguration(Configuration):
    """A height-3 tree over ``n`` replicas, as a position layout.

    ``layout[0]`` is the root, ``layout[1..b]`` the intermediates, and the
    remaining entries leaves.  Leaves are attached to intermediates in
    contiguous blocks, as balanced as the sizes allow.
    """

    layout: Tuple[int, ...]
    branch_factor: int

    @classmethod
    def from_layout(cls, layout: Iterable[int], branch_factor: int = 0) -> "TreeConfiguration":
        layout = tuple(layout)
        if branch_factor <= 0:
            branch_factor = branch_factor_for(len(layout))
        return cls(layout=layout, branch_factor=branch_factor)

    def __post_init__(self):
        n = len(self.layout)
        if self.branch_factor < 1:
            raise ValueError("branch factor must be positive")
        if 1 + self.branch_factor > n:
            raise ValueError(
                f"tree of branch factor {self.branch_factor} needs more than "
                f"{n} replicas"
            )
        if sorted(self.layout) != list(range(n)):
            raise ValueError("layout must be a permutation of replica ids")

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.layout)

    @property
    def root(self) -> int:
        return self.layout[0]

    @property
    def intermediates(self) -> Tuple[int, ...]:
        """M: the intermediate nodes (internal nodes except the root)."""
        return self.layout[1 : 1 + self.branch_factor]

    @property
    def internal_nodes(self) -> FrozenSet[int]:
        """I = {root} ∪ intermediates."""
        return frozenset(self.layout[: 1 + self.branch_factor])

    @property
    def leaves(self) -> Tuple[int, ...]:
        return self.layout[1 + self.branch_factor :]

    @cached_property
    def children(self) -> Dict[int, Tuple[int, ...]]:
        """Children of each internal node (root's children are the
        intermediates; leaves are split among intermediates in blocks)."""
        mapping: Dict[int, Tuple[int, ...]] = {self.root: self.intermediates}
        leaves = self.leaves
        b = self.branch_factor
        count = len(self.intermediates)
        if count == 0:
            return mapping
        base = len(leaves) // count
        extra = len(leaves) % count
        start = 0
        for index, node in enumerate(self.intermediates):
            size = base + (1 if index < extra else 0)
            mapping[node] = tuple(leaves[start : start + size])
            start += size
        return mapping

    @cached_property
    def parent(self) -> Dict[int, int]:
        mapping: Dict[int, int] = {}
        for node, kids in self.children.items():
            for kid in kids:
                mapping[kid] = node
        return mapping

    def subtree_size(self, intermediate: int) -> int:
        """|Ch(I)| + 1: votes the subtree of ``intermediate`` contributes."""
        return len(self.children[intermediate]) + 1

    @cached_property
    def score_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Precomputed views for vectorized scoring:
        ``(intermediate ids, child-id matrix, child mask, subtree votes)``.

        The child matrix is padded to the widest subtree; ``mask`` marks
        real entries.  Cached per (immutable) configuration so repeated
        ``tree_score``/``TreeTimeouts`` calls skip the Python loops.
        """
        spans, votes, _ = tree_position_structure(self.n, self.branch_factor)
        b = self.branch_factor
        lay = np.fromiter(self.layout, dtype=np.intp, count=self.n)
        intermediates = lay[1 : 1 + b].copy()
        widest = max((end - begin for begin, end in spans), default=0)
        child = np.zeros((b, widest), dtype=np.intp)
        mask = np.zeros((b, widest), dtype=bool)
        for index, (begin, end) in enumerate(spans):
            size = end - begin
            child[index, :size] = lay[begin:end]
            mask[index, :size] = True
        return intermediates, child, mask, np.asarray(votes, dtype=np.int64)

    # ------------------------------------------------------------------
    # Configuration interface
    # ------------------------------------------------------------------
    def special_replicas(self) -> FrozenSet[int]:
        """Only internal nodes are special (§6.2)."""
        return self.internal_nodes

    def participants(self) -> FrozenSet[int]:
        return frozenset(self.layout)

    @property
    def wire_size(self) -> int:
        return RECORD_HEADER_SIZE + 2 * len(self.layout)
