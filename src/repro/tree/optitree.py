"""OptiTree: annealed search for correct, low-latency trees (§6.2-§6.4).

OptiTree assigns internal-node roles only to replicas from the candidate
set ``K`` (maintained by the :class:`TreeSuspicionMonitor`) and ranks
trees with Definition 1's ``score(k, τ)`` where ``k = q + u``; the
estimate ``u`` lets the score budget for the *actual* number of
misbehaving replicas instead of the worst-case ``f`` (§6.1.2, Challenge 2).

The search is simulated annealing over layouts: a mutation swaps two
positions and keeps internal positions inside ``K`` (§4.2.4).
"""

from __future__ import annotations

import math
import random
from typing import Callable, FrozenSet, Optional

import numpy as np

from repro.core.pipeline import OptiLogPipeline, PipelineSettings
from repro.core.records import Configuration
from repro.crypto.signatures import KeyRegistry
from repro.optimize.annealing import (
    AnnealingResult,
    AnnealingSchedule,
    IncrementalSearch,
    anneal_incremental,
)
from repro.tree.candidates import TreeSuspicionMonitor
from repro.tree.score import TreeTimeouts, _collect_time, default_k, tree_score
from repro.tree.topology import (
    TreeConfiguration,
    branch_factor_for,
    tree_position_structure,
)


def random_tree(
    n: int,
    candidates: FrozenSet[int],
    rng: random.Random,
) -> Optional[TreeConfiguration]:
    """A uniformly random layout whose internal nodes come from ``K``."""
    b = branch_factor_for(n)
    internal_count = b + 1
    pool = sorted(candidates)
    if len(pool) < internal_count:
        return None
    internal = rng.sample(pool, internal_count)
    internal_set = set(internal)
    others = [replica for replica in range(n) if replica not in internal_set]
    rng.shuffle(others)
    return TreeConfiguration(layout=tuple(internal + others), branch_factor=b)


class IncrementalTreeSearch(IncrementalSearch[TreeConfiguration]):
    """Delta-evaluated tree search state (the §4.2.4 hot path).

    Holds the layout as a mutable list, per intermediate the cached
    ``Lagg(I)`` and ``Lagg(I) + L[I][R]``, and the current score.

    A swap of two leaves -- most proposals -- is scored in O(1).  Within
    one subtree no child set changes.  Across subtrees each of the two
    cached ``Lagg`` is settled by comparison: an arriving link ``>=`` it
    is the new maximum; otherwise a leaving link ``<`` it leaves it
    unchanged.  ``max`` returns one of its operands and never rounds, so
    a maximum settled this way is the very float a rescan returns, and
    while neither ``Lagg`` moves no cost moves and the held score stands.

    Only a decisive comparison may skip the rescan.  A leaving link that
    equals the cached maximum (it held it or tied it; ``inf`` ties
    ``inf``) says nothing about the children that stay, so that case,
    like every swap of an internal position, takes the O(b) fallback:
    rescan the touched subtrees (and, for a root swap, recompute every
    uplink term) and re-sort the costs.  ``rescans`` and ``resorts``
    count those two steps since construction; the O(1) path pays for
    neither.  Either way scores are bit-identical to
    :func:`repro.tree.score.tree_score`: the same IEEE operations on the
    same floats.

    Feasibility (internal nodes ⊆ K) is tracked as a count of
    non-candidate internal occupants, updated in O(1) per swap.  The one
    pending swap lives on the engine; the token :meth:`propose` returns
    carries nothing.
    """

    def __init__(
        self,
        latency: np.ndarray,
        initial: TreeConfiguration,
        candidates: FrozenSet[int],
        k: int,
    ):
        self.n = initial.n
        if np.shape(latency) != (self.n, self.n):
            raise ValueError(
                f"latency must be {self.n} x {self.n} for this tree, "
                f"got shape {np.shape(latency)}"
            )
        self.b = initial.branch_factor
        self.internal_count = self.b + 1
        self.rows = latency.tolist()  # Python floats: same IEEE doubles, faster ops
        self.layout = list(initial.layout)
        self.candidates = candidates
        self.needed = k - 1
        spans, votes, subtree_of = tree_position_structure(self.n, self.b)
        self.spans = spans
        self.votes = votes
        self.subtree_of = subtree_of
        self._bits = self.n.bit_length()
        self.rescans = self.resorts = 0
        self._bad = sum(
            1
            for replica in self.layout[: self.internal_count]
            if replica not in candidates
        )
        root_row_of = self.rows
        root = self.layout[0]
        self.lagg = [self._compute_lagg(index) for index in range(self.b)]
        self.costs = [
            self.lagg[index] + root_row_of[self.layout[1 + index]][root]
            for index in range(self.b)
        ]
        self._score = math.inf if self._bad else self._score_from(self.costs)
        self.rescans = self.resorts = 0  # fallbacks only, not the build above

    # -- cost plumbing --------------------------------------------------
    def _compute_lagg(self, index: int) -> float:
        """Lagg of intermediate ``index`` from the current layout."""
        self.rescans += 1
        begin, end = self.spans[index]
        if begin == end:
            return 0.0
        layout = self.layout
        row = self.rows[layout[1 + index]]
        slowest = row[layout[begin]]
        for position in range(begin + 1, end):
            link = row[layout[position]]
            if link > slowest:
                slowest = link
        return slowest

    def _score_from(self, costs: list) -> float:
        # One implementation of the quorum-collect rule repo-wide: the
        # shared helper keeps the incremental scores bit-identical to
        # tree_score by construction.
        self.resorts += 1
        return _collect_time(zip(costs, self.votes), self.needed)

    # -- IncrementalSearch protocol -------------------------------------
    def initial_score(self) -> float:
        return self._score

    def propose(self, rng: random.Random) -> Optional[bool]:
        n = self.n
        layout = self.layout
        internal_count = self.internal_count
        # rng.randrange(n) twice, as the rejection loop it runs inside.
        bits = self._bits
        getrandbits = rng.getrandbits
        position_a = getrandbits(bits)
        while position_a >= n:
            position_a = getrandbits(bits)
        position_b = getrandbits(bits)
        while position_b >= n:
            position_b = getrandbits(bits)
        if position_b == position_a:
            position_b = (position_a + 1) % n
        if position_a < position_b:
            low, high = position_a, position_b
        else:
            low, high = position_b, position_a
        if low < internal_count <= high and layout[high] not in self.candidates:
            candidates = self.candidates
            candidate_positions = [
                position
                for position in range(internal_count, n)
                if layout[position] in candidates
            ]
            if not candidate_positions:
                return None  # the full path's "mutation falls through" case
            high = rng.choice(candidate_positions)
        self._low = low
        self._high = high
        return True

    def delta_score(self, mutation: bool) -> float:
        layout = self.layout
        low, high = self._low, self._high
        leaving, arriving = layout[low], layout[high]  # as seen from ``low``
        layout[low], layout[high] = arriving, leaving
        subtree_of = self.subtree_of
        index_low, index_high = subtree_of[low], subtree_of[high]
        rows, lagg, bad = self.rows, self.lagg, self._bad
        if low >= self.internal_count:  # leaf <-> leaf
            if index_low == index_high:
                self._changed = None
                return self._score
            row = rows[layout[1 + index_low]]
            old_low = new_low = lagg[index_low]
            if row[arriving] >= old_low:
                new_low = row[arriving]
            elif not row[leaving] < old_low:
                new_low = self._compute_lagg(index_low)
            row = rows[layout[1 + index_high]]
            old_high = new_high = lagg[index_high]
            if row[leaving] >= old_high:
                new_high = row[leaving]
            elif not row[arriving] < old_high:
                new_high = self._compute_lagg(index_high)
            if new_low == old_low and new_high == old_high:
                self._changed = None
                return self._score
            changed = [(index_low, new_low), (index_high, new_high)]
        else:
            if high >= self.internal_count:
                candidates = self.candidates
                bad += (arriving not in candidates) - (leaving not in candidates)
            # Both endpoints' subtrees; the root (-1) has no Lagg.
            changed = [
                (index, self._compute_lagg(index))
                for index in {index_low, index_high}
                if index >= 0
            ]
        root = layout[0]
        if low:
            costs = self.costs.copy()
        else:  # root swap: every uplink term changes
            costs = [
                lagg[index] + rows[layout[1 + index]][root]
                for index in range(self.b)
            ]
        for index, new_lagg in changed:
            costs[index] = new_lagg + rows[layout[1 + index]][root]
        self._changed = changed
        self._new_costs = costs
        self._new_bad = bad
        self._new_score = math.inf if bad else self._score_from(costs)
        return self._new_score

    def apply(self, mutation: bool) -> None:
        if self._changed is not None:  # else no cost moved: nothing to install
            for index, new_lagg in self._changed:
                self.lagg[index] = new_lagg
            self.costs = self._new_costs
            self._bad = self._new_bad
            self._score = self._new_score

    def revert(self, mutation: bool) -> None:
        layout = self.layout
        low, high = self._low, self._high
        layout[low], layout[high] = layout[high], layout[low]

    def snapshot(self) -> TreeConfiguration:
        return TreeConfiguration(
            layout=tuple(self.layout), branch_factor=self.b
        )


def optitree_search(
    latency: np.ndarray,
    n: int,
    f: int,
    candidates: FrozenSet[int],
    u: int,
    rng: Optional[random.Random] = None,
    schedule: Optional[AnnealingSchedule] = None,
    k: Optional[int] = None,
) -> Optional[AnnealingResult]:
    """Annealed tree search; returns None when K is too small for a tree.

    ``k`` defaults to ``q + u = (n - f) + u`` (Definition 1); experiments
    exploring the robustness/latency trade-off (Fig. 14) override it.

    The search runs on the delta-evaluated :class:`IncrementalTreeSearch`
    engine; the full-scoring twin the tests compare it with (a fresh
    :class:`TreeConfiguration` per mutation, bit-identical results under
    the same seed) is ``optitree_search_full`` in ``tests/oracles.py``.
    """
    rng = rng or random.Random(0)
    votes_needed = k if k is not None else default_k(n, f, u)
    initial = random_tree(n, candidates, rng)
    if initial is None:
        return None

    schedule = schedule or AnnealingSchedule(
        iterations=20_000, initial_temperature=0.05, cooling=0.9995
    )
    engine = IncrementalTreeSearch(latency, initial, candidates, votes_needed)
    return anneal_incremental(engine, rng, schedule)


class OptiTree:
    """One replica's OptiTree stack: tree scoring + OptiLog pipeline.

    Wires the tree variant of the SuspicionMonitor into the pipeline and
    attaches the annealed search as the ConfigSensor's strategy.  Used by
    the Kauri engine in :mod:`repro.consensus.kauri` and standalone by the
    analytical experiments.
    """

    def __init__(
        self,
        replica_id: int,
        n: int,
        f: int,
        registry: Optional[KeyRegistry] = None,
        settings: Optional[PipelineSettings] = None,
        propose: Optional[Callable] = None,
        on_reconfigure: Optional[Callable] = None,
        search_schedule: Optional[AnnealingSchedule] = None,
    ):
        self.n = n
        self.f = f
        self.branch_factor = branch_factor_for(n)
        self.search_schedule = search_schedule
        settings = settings or PipelineSettings(n=n, f=f)
        self.pipeline = OptiLogPipeline(
            replica_id,
            settings,
            registry=registry,
            propose=propose,
            suspicion_monitor_factory=TreeSuspicionMonitor,
        )
        self.pipeline.attach_config(
            search=self._search,
            score=self._score,
            validator=self._validate,
            on_reconfigure=on_reconfigure,
        )

    # ------------------------------------------------------------------
    # OptiLog hooks (§6.3: score + timeout derivation)
    # ------------------------------------------------------------------
    def _score(self, configuration: Configuration) -> float:
        if not isinstance(configuration, TreeConfiguration):
            return math.inf
        k = default_k(self.n, self.f, self.pipeline.suspicion_monitor.u)
        return tree_score(self.pipeline.latency_matrix, configuration, k)

    def _search(
        self, candidates: FrozenSet[int], u: int, rng: random.Random
    ) -> Optional[TreeConfiguration]:
        result = optitree_search(
            self.pipeline.latency_matrix,
            self.n,
            self.f,
            candidates,
            u,
            rng=rng,
            schedule=self.search_schedule,
        )
        return result.best_state if result is not None else None

    def _validate(self, configuration: Configuration) -> bool:
        if not isinstance(configuration, TreeConfiguration):
            return False
        return (
            configuration.n == self.n
            and configuration.branch_factor == self.branch_factor
        )

    def timeouts_for(self, tree: TreeConfiguration) -> TreeTimeouts:
        """``d_m``/``d_rnd`` provider for the active tree (Lemma 6)."""
        k = default_k(self.n, self.f, self.pipeline.suspicion_monitor.u)
        return TreeTimeouts(self.pipeline.latency_matrix, tree, k)

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    @property
    def candidates(self) -> FrozenSet[int]:
        return self.pipeline.candidates

    @property
    def u(self) -> int:
        return self.pipeline.u
