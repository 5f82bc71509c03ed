"""Simulated annealing (§4.2.4, §7.7).

OptiLog's ConfigSensor searches large configuration spaces with simulated
annealing [Kirkpatrick et al. 1983].  The search here is generic: callers
supply an :class:`IncrementalSearch` engine, which proposes a neighbouring
configuration and scores it (lower is better), and a schedule.  The search
ends when the iteration budget (the paper's *search timer*) expires or the
temperature cools below the convergence threshold, whichever is first.

Determinism: all randomness flows through the caller-provided generator;
given the same seed, initial state and budget, the search returns the same
configuration.  Experiments that sweep "search time" (Fig. 12) map
wall-clock budgets to iteration budgets through a calibrated
iterations-per-second constant.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Generic, Optional, TypeVar

State = TypeVar("State")
Mutation = Any

# Calibration constant mapping the paper's wall-clock search times onto
# iteration budgets: the rate of the paper's testbed, deliberately not this
# host's (which is far higher).  Every seeded figure depends on the value.
ITERATIONS_PER_SECOND = 20_000


@dataclass
class AnnealingSchedule:
    """Cooling schedule and stopping rule.

    Attributes
    ----------
    initial_temperature:
        Starting temperature, in score units.
    cooling:
        Multiplicative cooling factor applied every iteration.
    min_temperature:
        Convergence threshold; the search stops when cooled below it.
    iterations:
        Hard budget (the *search timer*).
    """

    initial_temperature: float = 1.0
    cooling: float = 0.999
    min_temperature: float = 1e-4
    iterations: int = 10_000

    def __post_init__(self):
        for name in ("initial_temperature", "min_temperature", "iterations"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if not 0 < self.cooling <= 1:
            raise ValueError(f"cooling must be in (0, 1], got {self.cooling!r}")

    @classmethod
    def for_search_time(cls, seconds: float, **overrides) -> "AnnealingSchedule":
        """Schedule whose budget models a wall-clock search time."""
        params = {"iterations": max(1, int(seconds * ITERATIONS_PER_SECOND))}
        params.update(overrides)
        return cls(**params)


@dataclass
class AnnealingResult(Generic[State]):
    """Outcome of one annealing run."""

    best_state: State
    best_score: float
    initial_score: float
    iterations_used: int
    accepted: int
    converged: bool

    @property
    def improvement(self) -> float:
        """Fractional improvement over the initial configuration."""
        if self.initial_score == 0:
            return 0.0
        return (self.initial_score - self.best_score) / self.initial_score


class IncrementalSearch(Generic[State]):
    """Delta-evaluation protocol for :func:`anneal_incremental`.

    A search engine owns the *current* state as mutable internal data and
    exposes it to the annealer through five hooks.  The contract that
    keeps incremental search bit-identical to the classic full-scoring
    loop (``anneal`` in ``tests/oracles.py``) over the equivalent
    ``score``/``mutate`` pair:

    * :meth:`propose` consumes ``rng``'s bit stream exactly as the
      full-path ``mutate`` would (same draws, same order) and returns an
      opaque mutation token -- or ``None`` for the full path's "mutation
      fell through, candidate == current" case.  ``rng`` is a plain
      :class:`random.Random`: an engine may run ``randrange``'s own
      ``getrandbits`` rejection loop inline, which a subclass overriding
      ``randrange`` or ``_randbelow`` would not see;
    * :meth:`delta_score` returns the candidate's *absolute* score,
      bit-identical to what the full ``score`` would return on the
      mutated state, recomputing only the entries the mutation can move;
    * exactly one of :meth:`apply` (accepted) or :meth:`revert`
      (rejected) follows every ``delta_score``.  An engine may evaluate
      tentatively-in-place (then ``apply`` just installs cached entries
      and ``revert`` undoes the tentative state) or purely (then
      ``revert`` is a no-op);
    * :meth:`snapshot` materialises the current state as the immutable
      configuration type callers expect; it is only called when a new
      best is found, so it may be comparatively expensive.
    """

    def initial_score(self) -> float:
        """Full score of the initial state."""
        raise NotImplementedError

    def propose(self, rng: random.Random) -> Optional[Mutation]:
        raise NotImplementedError

    def delta_score(self, mutation: Mutation) -> float:
        raise NotImplementedError

    def apply(self, mutation: Mutation) -> None:
        raise NotImplementedError

    def revert(self, mutation: Mutation) -> None:
        raise NotImplementedError

    def snapshot(self) -> State:
        raise NotImplementedError


def anneal_incremental(
    engine: IncrementalSearch[State],
    rng: random.Random,
    schedule: Optional[AnnealingSchedule] = None,
) -> AnnealingResult[State]:
    """Minimise by simulated annealing over an incremental engine.

    The accept/reject sequence, iteration count and best state are
    bit-identical to the full-scoring loop (``anneal`` in
    ``tests/oracles.py``) on the equivalent ``score``/``mutate``
    closures, provided the engine honours the :class:`IncrementalSearch`
    contract: randomness is drawn in the same order and every
    ``delta_score`` matches the full score to the bit.  Tests hold an
    engine to that contract by wrapping it (``ScoreChecked`` in
    ``tests/oracles.py``), not through a mode of this loop.
    """
    schedule = schedule or AnnealingSchedule()
    propose, delta_score = engine.propose, engine.delta_score
    apply, revert, snapshot = engine.apply, engine.revert, engine.snapshot
    uniform, exp, inf = rng.random, math.exp, math.inf
    cooling, min_temperature = schedule.cooling, schedule.min_temperature
    current_score = engine.initial_score()
    best = snapshot()
    best_score = current_score
    initial_score = current_score
    temperature = schedule.initial_temperature
    accepted = 0
    converged = False
    iterations_used = schedule.iterations

    for iteration in range(schedule.iterations):
        mutation = propose(rng)
        if mutation is None:
            candidate_score = current_score
        else:
            candidate_score = delta_score(mutation)
        delta = candidate_score - current_score
        if delta <= 0:
            accept = candidate_score != inf
        elif candidate_score == inf or temperature <= 0:
            accept = False
        else:
            accept = uniform() < exp(-delta / temperature)
        if accept:
            if mutation is not None:
                apply(mutation)
            current_score = candidate_score
            accepted += 1
            if current_score < best_score:
                best = snapshot()
                best_score = current_score
        elif mutation is not None:
            revert(mutation)
        temperature *= cooling
        if temperature < min_temperature:
            converged = True
            iterations_used = iteration + 1
            break

    return AnnealingResult(
        best_state=best,
        best_score=best_score,
        initial_score=initial_score,
        iterations_used=iterations_used,
        accepted=accepted,
        converged=converged,
    )
