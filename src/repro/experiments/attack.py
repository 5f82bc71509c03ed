"""Attack arenas and the adversary-synthesis objective.

An *arena* is the fixed battlefield a synthesized adversary fights on:
one protocol engine + deployment + workload (derived from the registered
hand-authored scenarios so synthesized attacks and the hand-written
reference points are compared on byte-identical ground), a tuple of
evaluation seeds, and per-seed fault-free baselines.  The objective
evaluates a compiled fault schedule by running the arena under each seed
and scoring either

* ``latency``   -- censored commit-latency degradation: the attacked
  run's mean commit latency over the *baseline's* block count, with
  every block the attack prevented counted at the full run duration.
  Ratio to the baseline mean, so 1.0 = harmless and a liveness kill is
  large but **finite** (the graceful-degradation requirement: a genome
  that stalls commits entirely must score, not hang or div-zero); or
* ``suspicion`` -- false-suspicion yield: how many *correct* replicas
  the attack evicted from the monitor's candidate set K (OptiAware
  arenas only; Fig. 10's smear campaign is the hand-authored reference).

Robustness rule: the reported degradation is the **minimum across the
seed tuple** (worst-of-k-seeds for the adversary), so the search cannot
overfit a single RNG stream -- an attack only scores what it achieves
on *every* seed.

Determinism rules: every run is seeded and sliced through the same
``begin / sim.run(until) / finish`` path; the evaluation timeout is an
**event budget** (a multiple of the worst baseline's processed-event
count), not wall clock, so a timed-out evaluation is just as replayable
as a completed one.  Everything here is a pure function of its
arguments; arenas and evaluations are picklable for the process pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import Scenario, prepare_scenario, resolve_deployment
from repro.faults.genome import (
    AdversaryBudget,
    ArenaProfile,
    AttackGenome,
    GenomeError,
    compile_genome,
    genome_to_dict,
)
from repro.faults.schedule import FaultSpec, _concrete_attacker_ids
from repro.experiments.scenarios import ADVERSARIAL_SCENARIOS

#: Objectives the search can anneal against.
OBJECTIVES = ("latency", "suspicion")

#: arena name -> (base scenario registry name, reference scenario names,
#: default duration).  Durations are search-speed defaults; pass
#: ``duration=`` to :func:`make_arena` for full-length runs.  The bases
#: are the hand-authored scenarios with their faults stripped, so every
#: reference point re-runs on exactly the arena's ground.
ARENA_SOURCES: Dict[str, Tuple[str, Tuple[str, ...], float]] = {
    "pbft": ("partition-heal", ("partition-heal", "lossy-wan"), 8.0),
    "hotstuff": ("churn-storm", ("churn-storm",), 8.0),
    "kauri": ("stealth-delta", ("stealth-delta",), 8.0),
    "optiaware": ("smear-campaign", ("smear-campaign",), 18.0),
}

#: Commits landing in the final fraction of the run prove the system
#: was still live at the end (the recovery indicator per evaluation).
_RECOVERY_WINDOW = 0.9


def _family(protocol: str) -> str:
    if "kauri" in protocol:
        return "kauri"
    if "hotstuff" in protocol:
        return "hotstuff"
    return "pbft"


@dataclass
class AttackArena:
    """A battlefield plus its per-seed fault-free baselines."""

    name: str
    base: Scenario
    profile: ArenaProfile
    seeds: Tuple[int, ...]
    references: Tuple[str, ...]
    #: Event budget per evaluation run: ``factor * max(baseline events)``.
    #: A genome that processes this many events without finishing is a
    #: liveness kill; censoring already scores it, so cutting early only
    #: bounds search wall-clock, never changes a completed run's score.
    max_events_factor: int = 6
    baselines: Dict[int, Dict[str, float]] = field(default_factory=dict)
    max_events: Optional[int] = None


def make_arena(
    name: str,
    duration: Optional[float] = None,
    seeds: Sequence[int] = (0, 1),
) -> AttackArena:
    """Build an arena from the scenario registry (baselines not yet run)."""
    try:
        base_name, references, default_duration = ARENA_SOURCES[name]
    except KeyError:
        known = ", ".join(sorted(ARENA_SOURCES))
        raise ValueError(f"unknown arena {name!r} (known: {known})") from None
    factory, _ = ADVERSARIAL_SCENARIOS[base_name]
    base = replace(
        factory(0, duration if duration is not None else default_duration),
        faults=[],
        name=f"attack-arena-{name}",
    )
    profile = ArenaProfile(
        n=resolve_deployment(base.deployment, seed=0).n,
        family=_family(base.protocol),
        duration=base.duration,
        has_optilog="aware" in base.protocol,
    )
    return AttackArena(
        name=name,
        base=base,
        profile=profile,
        seeds=tuple(seeds),
        references=references,
    )


def _run_eval(
    scenario: Scenario, max_events: Optional[int], slices: int = 8
) -> Tuple[Any, Any, bool]:
    """Run a scenario under an event budget.

    Returns ``(run_metrics, cluster, timed_out)``.  The slice loop is
    the campaign plane's ``begin / sim.run(until) / finish`` pattern,
    which is bit-identical to ``cluster.run(duration)``; checking the
    processed-event counter only at slice boundaries keeps the check off
    the hot path while bounding a runaway genome at ``max_events`` plus
    one slice.
    """
    result = prepare_scenario(scenario)
    cluster = result.cluster
    cluster.begin()
    sim = cluster.sim
    duration = scenario.duration
    timed_out = False
    for step in range(1, slices + 1):
        sim.run(until=duration * step / slices)
        if max_events is not None and sim.events_processed > max_events:
            timed_out = True
            break
    return cluster.finish(), cluster, timed_out


def _seed_baseline(arena: AttackArena, seed: int) -> Dict[str, float]:
    scenario = replace(arena.base, seed=seed, faults=[])
    run_metrics, cluster, _ = _run_eval(scenario, max_events=None)
    commits = run_metrics.commits
    if not commits:
        raise ValueError(
            f"arena {arena.name!r} baseline committed nothing under seed "
            f"{seed}; degradation ratios would be meaningless"
        )
    return {
        "blocks": len(commits),
        "latency_sum": sum(event.latency for event in commits),
        "mean_latency": run_metrics.mean_latency(),
        "events": cluster.sim.events_processed,
        "suspicion_yield": _suspicion_yield(cluster, arena.profile.n, ()),
    }


def ensure_baselines(arena: AttackArena) -> AttackArena:
    """Fill per-seed baselines and the event budget, once, in place.

    Serial on purpose: baselines are a handful of runs cached for the
    whole search, and keeping them off the pool lets chain workers call
    this lazily after unpickling without nesting pools.
    """
    for seed in arena.seeds:
        if seed not in arena.baselines:
            arena.baselines[seed] = _seed_baseline(arena, seed)
    arena.max_events = arena.max_events_factor * max(
        int(stats["events"]) for stats in arena.baselines.values()
    )
    return arena


def _monitor_estimate(cluster, observer: int):
    replica = cluster.replicas[observer]
    optilog = getattr(replica, "optilog", None)
    if optilog is None:
        return None
    return optilog.pipeline.suspicion_monitor.estimate()


def _suspicion_yield(
    cluster, n: int, victims: Sequence[int]
) -> Optional[float]:
    """Correct replicas evicted from the candidate set K, observer's view.

    The observer is the lowest-id replica outside the victim set (the
    genome compiler guarantees replica 0 qualifies for synthesized
    attacks; hand-authored references may claim it).  The observer's own
    eviction counts: the canonical smear target is the leader -- replica
    0 itself -- and a correct monitor dropping a correct replica is the
    adversary's win regardless of whose id it is.  ``None`` when the
    arena has no monitoring pipeline.
    """
    observer = min(r for r in range(n) if r not in victims)
    estimate = _monitor_estimate(cluster, observer)
    if estimate is None:
        return None
    candidates, _ = estimate
    return float(
        sum(1 for r in range(n) if r not in victims and r not in candidates)
    )


def _seed_eval_worker(point: Dict[str, Any]) -> Dict[str, Any]:
    """Pool worker: score one (schedule, seed) pair on its arena.

    Module-level + plain-dict point: the process-pool contract.  The
    arena rides pickled with its baselines already filled.
    """
    arena: AttackArena = point["arena"]
    faults: Sequence[FaultSpec] = point["faults"]
    victims: Sequence[int] = point["victims"]
    objective: str = point["objective"]
    seed: int = point["seed"]
    duration = arena.base.duration
    base = arena.baselines[seed]
    scenario = replace(arena.base, seed=seed, faults=list(faults))
    run_metrics, cluster, timed_out = _run_eval(scenario, arena.max_events)
    commits = run_metrics.commits
    blocks = len(commits)
    base_blocks = int(base["blocks"])
    latency_sum = sum(event.latency for event in commits)
    # Censored mean: blocks the attack prevented are charged the
    # full run duration, so "no commits at all" scores finite.
    if blocks >= base_blocks:
        censored = latency_sum / blocks
    else:
        censored = (latency_sum + (base_blocks - blocks) * duration) / base_blocks
    latency_degradation = censored / base["mean_latency"]
    suspicion = _suspicion_yield(cluster, arena.profile.n, victims)
    entry: Dict[str, Any] = {
        "seed": seed,
        "latency_degradation": latency_degradation,
        "suspicion_yield": suspicion,
        "blocks": blocks,
        "baseline_blocks": base_blocks,
        "committed_ratio": blocks / base_blocks,
        "censored_latency": censored,
        "mean_latency": run_metrics.mean_latency() if commits else None,
        "recovered": bool(
            commits and commits[-1].commit_time >= _RECOVERY_WINDOW * duration
        ),
        "timed_out": timed_out,
        "events": cluster.sim.events_processed,
    }
    entry["degradation"] = (
        latency_degradation if objective == "latency" else suspicion
    )
    return entry


def evaluate_attack(
    arena: AttackArena,
    faults: Sequence[FaultSpec],
    victims: Sequence[int],
    objective: str,
    jobs: Optional[int] = None,
    label: str = "attack",
) -> Dict[str, Any]:
    """Score one compiled fault schedule across the arena's seed tuple.

    Returns the worst-of-seeds ``degradation`` plus per-seed
    liveness/recovery detail.  Pure and deterministic given the arena
    (with baselines), the schedule, and the objective; ``jobs`` shards
    the seed runs over the PR 4 process pool with per-seed entries
    collected in seed order, so any ``jobs`` value is byte-identical to
    the serial loop.
    """
    from repro.experiments.parallel import parallel_map

    if objective not in OBJECTIVES:
        raise ValueError(
            f"unknown objective {objective!r} (known: {', '.join(OBJECTIVES)})"
        )
    if objective == "suspicion" and not arena.profile.has_optilog:
        raise ValueError(
            f"objective 'suspicion' needs an OptiAware arena, not {arena.name!r}"
        )
    ensure_baselines(arena)
    points = [
        {
            "arena": arena,
            "faults": list(faults),
            "victims": tuple(victims),
            "objective": objective,
            "seed": seed,
            "label": f"{label} / seed {seed}",
        }
        for seed in arena.seeds
    ]
    per_seed = parallel_map(
        _seed_eval_worker,
        points,
        jobs=jobs,
        label=lambda point: point["label"],
    )
    return {
        "objective": objective,
        # Worst-of-k-seeds for the *adversary*: it only gets credit for
        # damage achieved under every RNG stream.
        "degradation": min(entry["degradation"] for entry in per_seed),
        "per_seed": per_seed,
    }


def genome_label(genome: AttackGenome) -> str:
    """Compact human-readable identity for pool-error labels and logs."""
    moves = ",".join(
        f"{move.kind}[{move.start}:{move.end}]" for move in genome.moves
    )
    return f"genome victims={list(genome.victims)} moves={moves or 'none'}"


def evaluate_genome(
    arena: AttackArena,
    budget: AdversaryBudget,
    objective: str,
    genome: AttackGenome,
    jobs: Optional[int] = None,
) -> Dict[str, Any]:
    """Compile + evaluate one genome; invalid genomes score ``invalid``.

    The search maps ``invalid`` to an ``inf`` annealing score (the
    infeasible-state convention) instead of repairing the genome, so the
    mutation RNG stream never depends on validity.
    """
    try:
        faults = compile_genome(genome, budget, arena.profile)
    except (GenomeError, ValueError) as error:
        return {
            "objective": objective,
            "degradation": None,
            "invalid": str(error),
            "genome": genome_to_dict(genome),
        }
    evaluation = evaluate_attack(
        arena,
        faults,
        genome.victims,
        objective,
        jobs=jobs,
        label=genome_label(genome),
    )
    evaluation["genome"] = genome_to_dict(genome)
    return evaluation


# ---------------------------------------------------------------------------
# Hand-authored reference points
# ---------------------------------------------------------------------------


def _reference_victims(faults: Sequence[FaultSpec], n: int) -> Tuple[int, ...]:
    """Best-effort static victim set of a hand-authored schedule.

    Role-resolved attackers (``"leader"``, ``"intermediates"``) and
    whole-cluster faults contribute nothing -- those references measure
    latency objectives, where the victim set only labels the report.
    """
    out: set = set()
    for spec in faults:
        out.update(_concrete_attacker_ids(spec.attacker))
        if spec.kind == "partition":
            if "groups" in spec.params:
                groups = [tuple(g) for g in spec.params["groups"]]
                out.update(min(groups, key=len))
            elif isinstance(spec.params.get("isolate"), int):
                out.add(spec.params["isolate"])
        elif spec.kind == "loss":
            out.update(spec.params.get("senders") or ())
        elif spec.kind == "churn":
            churn_victims = spec.params.get("victims", "all")
            if isinstance(churn_victims, (tuple, list)):
                out.update(v for v in churn_victims if isinstance(v, int))
    return tuple(sorted(v for v in out if 0 <= v < n))


def reference_attacks(
    arena: AttackArena,
) -> List[Tuple[str, List[FaultSpec], Tuple[int, ...]]]:
    """The arena's hand-authored schedules, rebuilt at arena duration."""
    out = []
    for name in arena.references:
        factory, _ = ADVERSARIAL_SCENARIOS[name]
        faults = factory(0, arena.base.duration).faults
        out.append((name, faults, _reference_victims(faults, arena.profile.n)))
    return out


def evaluate_references(
    arena: AttackArena, objective: str
) -> List[Dict[str, Any]]:
    """Score every hand-authored reference on the arena's own objective."""
    out = []
    for name, faults, victims in reference_attacks(arena):
        evaluation = evaluate_attack(arena, faults, victims, objective)
        evaluation["name"] = name
        evaluation["victims"] = list(victims)
        out.append(evaluation)
    return out


def best_reference_degradation(
    references: Sequence[Dict[str, Any]]
) -> Optional[float]:
    """The strongest hand-authored attack's worst-of-seeds degradation."""
    scores = [ref["degradation"] for ref in references if ref["degradation"] is not None]
    if not scores:
        return None
    return max(scores)
