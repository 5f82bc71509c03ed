"""Adversary synthesis: anneal the attacker, not the protocol.

ROADMAP item 4 (after Buchnik & Friedman's biased optimizer and
Alpturer et al.'s behavior synthesis): instead of hand-writing five
adversarial scenarios, *search* the strategy space for the schedule that
maximizes damage under an explicit budget.  The pieces are all reused:

* state space   -- :class:`repro.faults.genome.AttackGenome` (budgeted,
  quantized, compiled deterministically to ``FaultSpec`` schedules);
* objective     -- :mod:`repro.experiments.attack` (worst-of-k-seeds
  commit-latency degradation or false-suspicion yield, event-budget
  timeouts, liveness surfaced per evaluation);
* optimizer     -- the PR 4 :class:`IncrementalSearch` protocol and
  :func:`anneal_incremental` engine (maximization = minimizing the
  negated degradation; invalid genomes score ``inf``, the annealer's
  never-accepted infeasible convention);
* parallelism   -- the PR 4 pool: independent restart chains shard over
  :func:`parallel_map` (and a single chain shards its per-seed
  evaluations instead), merged in chain order, so any ``--jobs`` is
  byte-identical to the serial run.

The "incremental" in the protocol here is an evaluation *cache*, not a
delta-score: scenario runs dwarf everything else, and annealing revisits
states (reverted proposals, oscillation), so memoizing genome -> score
is the profitable increment.  ``delta_score`` still returns absolute
scores, exactly as the contract requires.
"""

from __future__ import annotations

import random
from dataclasses import asdict
from typing import Any, Dict, Optional, Tuple

from repro.experiments.attack import (
    AttackArena,
    ensure_baselines,
    evaluate_genome,
    genome_label,
)
from repro.experiments.parallel import derive_sweep_seed, parallel_map
from repro.faults.genome import (
    AdversaryBudget,
    AttackGenome,
    mutate,
    seed_genome,
)
from repro.optimize.annealing import (
    AnnealingSchedule,
    IncrementalSearch,
    anneal_incremental,
)

#: Default cooling: with ~tens of iterations per chain (evaluations are
#: whole seeded scenario runs), the temperature must fall fast.  Scores
#: are negated degradation ratios, so O(1) temperature units are right.
DEFAULT_SCHEDULE = AnnealingSchedule(
    initial_temperature=1.0, cooling=0.9, min_temperature=1e-3, iterations=40
)


class AttackSearchEngine(IncrementalSearch):
    """IncrementalSearch over genomes; score = negated degradation.

    Pure evaluation (``revert`` is a no-op); ``snapshot`` returns the
    ``(genome, evaluation)`` pair so the annealer's best state carries
    its liveness/recovery report.  The cache makes re-visited states
    free; ``evaluations`` counts actual scenario-running evaluations and
    ``scenario_runs`` the underlying seeded runs (the search's unit of
    cost).
    """

    def __init__(
        self,
        arena: AttackArena,
        budget: AdversaryBudget,
        objective: str,
        initial: Optional[AttackGenome] = None,
        eval_jobs: Optional[int] = None,
    ):
        self.arena = ensure_baselines(arena)
        self.budget = budget
        self.objective = objective
        self.eval_jobs = eval_jobs
        self._current = (
            initial if initial is not None else seed_genome(budget, arena.profile)
        )
        self._evaluations: Dict[AttackGenome, Dict[str, Any]] = {}
        self.evaluations = 0

    @property
    def scenario_runs(self) -> int:
        return self.evaluations * len(self.arena.seeds)

    def _score_of(self, evaluation: Dict[str, Any]) -> float:
        if evaluation.get("degradation") is None:
            return float("inf")
        return -evaluation["degradation"]

    def _evaluate(self, genome: AttackGenome) -> Dict[str, Any]:
        cached = self._evaluations.get(genome)
        if cached is None:
            cached = evaluate_genome(
                self.arena, self.budget, self.objective, genome, jobs=self.eval_jobs
            )
            if "invalid" not in cached:
                self.evaluations += 1
            self._evaluations[genome] = cached
        return cached

    # -- IncrementalSearch protocol ------------------------------------

    def initial_score(self) -> float:
        return self._score_of(self._evaluate(self._current))

    def propose(self, rng: random.Random) -> Dict[str, Any]:
        candidate = mutate(
            self._current, rng, self.budget, self.arena.profile
        )
        return {"genome": candidate}

    def delta_score(self, mutation: Dict[str, Any]) -> float:
        return self._score_of(self._evaluate(mutation["genome"]))

    def apply(self, mutation: Dict[str, Any]) -> None:
        self._current = mutation["genome"]

    def revert(self, mutation: Dict[str, Any]) -> None:
        pass  # pure evaluation: nothing was touched

    def snapshot(self) -> Tuple[AttackGenome, Dict[str, Any]]:
        return self._current, self._evaluations[self._current]


def _run_attack_chain(point: Dict[str, Any]) -> Dict[str, Any]:
    """Pool worker: one annealing chain, fully self-contained."""
    engine = AttackSearchEngine(
        arena=point["arena"],
        budget=point["budget"],
        objective=point["objective"],
        initial=seed_genome(
            point["budget"],
            point["arena"].profile,
            variant=point["chain"],
            prefer="smear" if point["objective"] == "suspicion" else None,
        ),
        eval_jobs=point.get("eval_jobs"),
    )
    rng = random.Random(point["chain_seed"])
    result = anneal_incremental(engine, rng, point["schedule"])
    best_genome, best_evaluation = result.best_state
    return {
        "chain": point["chain"],
        "chain_seed": point["chain_seed"],
        "best_score": result.best_score,
        "best_degradation": -result.best_score,
        "initial_degradation": -result.initial_score,
        "best_genome": best_evaluation["genome"],
        "best_evaluation": best_evaluation,
        "best_label": genome_label(best_genome),
        "iterations_used": result.iterations_used,
        "accepted": result.accepted,
        "evaluations": engine.evaluations,
        "scenario_runs": engine.scenario_runs,
    }


def attack_search(
    arena: AttackArena,
    budget: AdversaryBudget,
    objective: str = "latency",
    seed: int = 0,
    restarts: int = 2,
    schedule: Optional[AnnealingSchedule] = None,
    jobs: Optional[int] = None,
    progress=None,
) -> Dict[str, Any]:
    """Synthesize the worst attack the budget allows on this arena.

    Runs ``restarts`` independent annealing chains from labelled
    substreams of ``seed`` and keeps the best worst-of-seeds result.
    Parallelism places itself at exactly one level: with multiple chains
    the pool shards *chains* (per-seed evaluations serial inside each
    worker); with one chain it shards the per-seed *evaluations*.
    Either way results merge in fixed order, so output is byte-identical
    for any ``jobs``.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    schedule = schedule or DEFAULT_SCHEDULE
    ensure_baselines(arena)
    chain_parallel = restarts > 1
    points = [
        {
            "chain": chain,
            "chain_seed": derive_sweep_seed(seed, f"attack-chain-{chain}"),
            "arena": arena,
            "budget": budget,
            "objective": objective,
            "schedule": schedule,
            "eval_jobs": None if chain_parallel else jobs,
        }
        for chain in range(restarts)
    ]
    chains = parallel_map(
        _run_attack_chain,
        points,
        jobs=jobs if chain_parallel else 1,
        progress=progress,
        label=lambda point: f"chain {point['chain']} (seed {point['chain_seed']})",
    )
    best = max(chains, key=lambda chain: (chain["best_degradation"], -chain["chain"]))
    return {
        "arena": arena.name,
        "duration": arena.base.duration,
        "seeds": list(arena.seeds),
        "objective": objective,
        "budget": asdict(budget),
        "seed": seed,
        "restarts": restarts,
        "iterations": schedule.iterations,
        "best": {
            "degradation": best["best_degradation"],
            "genome": best["best_genome"],
            "label": best["best_label"],
            "evaluation": best["best_evaluation"],
            "chain": best["chain"],
        },
        "chains": [
            {
                key: chain[key]
                for key in (
                    "chain",
                    "chain_seed",
                    "best_degradation",
                    "initial_degradation",
                    "iterations_used",
                    "accepted",
                    "evaluations",
                    "scenario_runs",
                )
            }
            for chain in chains
        ],
        "scenario_runs": sum(chain["scenario_runs"] for chain in chains),
    }
