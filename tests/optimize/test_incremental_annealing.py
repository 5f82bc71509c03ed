"""The incremental annealing protocol vs the full-scoring reference.

A toy combinatorial problem (pick a subset of fixed size minimising the
sum of its values) exercised through both paths: the incremental engine
must reproduce the full path's accept/reject sequence, best state and
score exactly, and :class:`oracles.ScoreChecked` must catch an engine
whose deltas drift.
"""

import math
import random

import pytest

from oracles import ScoreChecked, anneal
from repro.optimize.annealing import (
    AnnealingSchedule,
    IncrementalSearch,
    anneal_incremental,
)

VALUES = [3.0, 1.5, 4.25, 0.5, 2.75, 6.0, 0.25, 5.5, 1.0, 3.5]
SUBSET_SIZE = 4


def full_score(subset: frozenset) -> float:
    return sum(VALUES[i] for i in sorted(subset))


def full_mutate(subset: frozenset, rng: random.Random) -> frozenset:
    inside = sorted(subset)
    outside = [i for i in range(len(VALUES)) if i not in subset]
    if not outside:
        return subset
    removed = rng.choice(inside)
    added = rng.choice(outside)
    return (subset - {removed}) | {added}


class SubsetEngine(IncrementalSearch):
    """Incremental twin of (full_score, full_mutate)."""

    def __init__(self, initial: frozenset, skew: float = 0.0):
        self.members = sorted(initial)
        self.score = full_score(initial)
        self.skew = skew  # deliberate delta error for ScoreChecked

    def initial_score(self) -> float:
        return self.score

    def propose(self, rng: random.Random):
        outside = [i for i in range(len(VALUES)) if i not in set(self.members)]
        if not outside:
            return None
        removed = rng.choice(self.members)
        added = rng.choice(outside)
        return (removed, added)

    def delta_score(self, mutation) -> float:
        removed, added = mutation
        # Recompute as the full path would: sum over the sorted candidate
        # subset, so float accumulation order matches exactly.
        candidate = (set(self.members) - {removed}) | {added}
        return full_score(frozenset(candidate)) + self.skew

    def apply(self, mutation) -> None:
        removed, added = mutation
        members = set(self.members)
        members.discard(removed)
        members.add(added)
        self.members = sorted(members)
        self.score = full_score(frozenset(members))

    def revert(self, mutation) -> None:
        pass  # purely-evaluating engine: nothing to undo

    def snapshot(self) -> frozenset:
        return frozenset(self.members)


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_incremental_matches_full_path(seed):
    initial = frozenset(range(SUBSET_SIZE))
    schedule = AnnealingSchedule(iterations=400, initial_temperature=1.0)
    full = anneal(initial, full_score, full_mutate, random.Random(seed), schedule)
    incremental = anneal_incremental(
        SubsetEngine(initial), random.Random(seed), schedule
    )
    assert incremental.best_state == full.best_state
    assert incremental.best_score == full.best_score
    assert incremental.initial_score == full.initial_score
    assert incremental.accepted == full.accepted
    assert incremental.iterations_used == full.iterations_used
    assert incremental.converged == full.converged


def test_incremental_finds_optimum():
    initial = frozenset(range(SUBSET_SIZE))
    result = anneal_incremental(
        SubsetEngine(initial),
        random.Random(3),
        AnnealingSchedule(iterations=2000, initial_temperature=1.0),
    )
    optimum = frozenset(
        sorted(range(len(VALUES)), key=lambda i: VALUES[i])[:SUBSET_SIZE]
    )
    assert result.best_state == optimum
    assert result.best_score == full_score(optimum)


def test_checked_reference_mode_passes_for_honest_engine():
    schedule = AnnealingSchedule(iterations=200, initial_temperature=1.0)
    initial = frozenset(range(SUBSET_SIZE))
    checked = ScoreChecked(SubsetEngine(initial), full_score)
    result = anneal_incremental(checked, random.Random(5), schedule)
    assert result.accepted > 0
    assert checked.applied > 0
    # The wrapper only watches: the bare engine takes the same steps.
    assert result == anneal_incremental(
        SubsetEngine(initial), random.Random(5), schedule
    )


def test_checked_reference_mode_catches_drifting_deltas():
    engine = ScoreChecked(
        SubsetEngine(frozenset(range(SUBSET_SIZE)), skew=1e-9), full_score
    )
    with pytest.raises(AssertionError, match="diverged"):
        anneal_incremental(
            engine,
            random.Random(5),
            AnnealingSchedule(iterations=200, initial_temperature=1.0),
        )


def test_no_op_mutation_counts_as_accepted():
    """When propose returns None (mutation falls through), the full path
    re-scores an identical candidate and accepts it; the incremental
    path must count the iteration the same way."""

    class Stuck(IncrementalSearch):
        def initial_score(self):
            return 1.0

        def propose(self, rng):
            rng.random()  # keep the stream moving as a real engine would
            return None

        def delta_score(self, mutation):  # pragma: no cover
            raise AssertionError("must not be called for None mutations")

        def apply(self, mutation):  # pragma: no cover
            raise AssertionError

        def revert(self, mutation):  # pragma: no cover
            raise AssertionError

        def snapshot(self):
            return "stuck"

    result = anneal_incremental(
        Stuck(), random.Random(0), AnnealingSchedule(iterations=50)
    )
    assert result.accepted == 50
    assert result.best_score == 1.0
    assert not math.isinf(result.best_score)
