"""Kauri's reconfiguration scheme: t-bounded conformity bins (§6.1.1).

Kauri divides the ``n`` replicas into ``t = n / i`` disjoint bins of size
``i`` (the number of internal nodes).  Tree ``j`` uses bin ``j`` as its
internal nodes; if ``f < t``, some bin contains no faulty replica, so one
of the ``t`` trees has all-correct internal nodes.  After ``t`` failed
trees, Kauri falls back to a star topology.  Trees (and the assignment of
the remaining replicas to leaf positions) are randomized, which is
exactly what OptiTree improves on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.tree.topology import TreeConfiguration, branch_factor_for


@dataclass
class StarFallback:
    """Marker returned once all bins are exhausted (revert to HotStuff)."""

    leader: int


class KauriReconfigurer:
    """Produces Kauri's sequence of randomized bin trees.

    Parameters
    ----------
    n:
        System size; the branch factor and bin size derive from it.
    rng:
        Source of the randomized permutation (the paper builds multiple
        randomized trees "to prevent targeted attacks").
    """

    def __init__(self, n: int, rng: Optional[random.Random] = None):
        self.n = n
        self.rng = rng or random.Random(0)
        self.branch_factor = branch_factor_for(n)
        self.internal_count = self.branch_factor + 1  # i = b + 1
        self.bin_count = n // self.internal_count      # t = n / i
        permutation = list(range(n))
        self.rng.shuffle(permutation)
        self._permutation = permutation
        #: The disjoint internal-node bins (t-bounded conformity).
        self.bins: List[List[int]] = [
            permutation[j * self.internal_count : (j + 1) * self.internal_count]
            for j in range(self.bin_count)
        ]
        self.trials = 0

    def tree_for_bin(self, index: int) -> TreeConfiguration:
        """Tree ``index``: bin members internal, everyone else a leaf."""
        internal = self.bins[index]
        internal_set = set(internal)
        leaves = [r for r in self._permutation if r not in internal_set]
        self.rng.shuffle(leaves)
        layout = tuple(internal + leaves)
        return TreeConfiguration(layout=layout, branch_factor=self.branch_factor)

    def next_tree(self):
        """Next reconfiguration target: a bin tree, or the star fallback.

        Kauri supports only ``t ≈ √n`` reconfigurations; the ``t+1``-th
        call returns :class:`StarFallback` (Challenge 3 in §6.1.2).
        """
        if self.trials >= self.bin_count:
            return StarFallback(leader=self._permutation[0])
        tree = self.tree_for_bin(self.trials)
        self.trials += 1
        return tree
