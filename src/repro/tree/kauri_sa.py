"""Kauri-sa: Kauri with simulated-annealing tree formation (§7.5).

The paper's ablation variant: Kauri benefits from annealed tree search,
but lacks OptiLog's estimate ``u`` and candidate bookkeeping.  Therefore

* trees are scored for the worst case ``k = q + f`` (it must budget for
  ``f`` missing votes, not the observed ``u``), and
* after every failed tree, *all* of its internal nodes are excluded from
  future candidacy -- a whole ``b + 1`` replicas per failure, which is
  why Kauri-sa runs out of good candidates long before OptiTree does
  (Fig. 10).
"""

from __future__ import annotations

import random
from typing import FrozenSet, Optional, Set

import numpy as np

from repro.optimize.annealing import AnnealingSchedule
from repro.tree.optitree import optitree_search
from repro.tree.topology import TreeConfiguration, branch_factor_for


class KauriSaReconfigurer:
    """Sequence of annealed trees with internal-node blacklisting."""

    def __init__(
        self,
        latency: np.ndarray,
        n: int,
        f: int,
        rng: Optional[random.Random] = None,
        schedule: Optional[AnnealingSchedule] = None,
    ):
        self.latency = latency
        self.n = n
        self.f = f
        self.branch_factor = branch_factor_for(n)
        self.rng = rng or random.Random(0)
        self.schedule = schedule or AnnealingSchedule(
            iterations=20_000, initial_temperature=0.05, cooling=0.9995
        )
        self.excluded: Set[int] = set()
        self.trees_formed = 0
        self._candidates: Optional[FrozenSet[int]] = None

    @property
    def candidates(self) -> FrozenSet[int]:
        # Cached: the search layer reads this per annealing run and the
        # set only changes when a tree fails (see tree_failed).
        if self._candidates is None:
            self._candidates = frozenset(
                r for r in range(self.n) if r not in self.excluded
            )
        return self._candidates

    def next_tree(self) -> Optional[TreeConfiguration]:
        """Best annealed tree among the remaining candidates.

        Returns None when fewer than ``b + 1`` candidates remain (the
        star-fallback point).
        """
        k = (self.n - self.f) + self.f  # q + f: no estimate u available
        result = optitree_search(
            self.latency,
            self.n,
            self.f,
            self.candidates,
            u=0,
            rng=self.rng,
            schedule=self.schedule,
            k=k,
        )
        if result is None:
            return None
        self.trees_formed += 1
        return result.best_state

    def tree_failed(self, tree: TreeConfiguration) -> None:
        """Blacklist every internal node of the failed tree."""
        self.excluded.update(tree.internal_nodes)
        self._candidates = None
