"""The attack objective: arenas, baselines, censoring, references."""

import json
from dataclasses import replace

import pytest

from repro.experiments.attack import (
    ARENA_SOURCES,
    best_reference_degradation,
    ensure_baselines,
    evaluate_attack,
    evaluate_genome,
    evaluate_references,
    make_arena,
    reference_attacks,
)
from repro.experiments.runner import FaultSpec
from repro.faults.genome import (
    AdversaryBudget,
    AttackGenome,
    AttackMove,
    seed_genome,
)
from repro.optimize.adversary import DEFAULT_SCHEDULE, attack_search

#: One small arena shared by the module: n=21 pbft at a short duration.
DURATION = 3.0


@pytest.fixture(scope="module")
def arena():
    arena = make_arena("pbft", duration=DURATION, seeds=(0, 1))
    ensure_baselines(arena)
    return arena


def test_unknown_arena_is_loud():
    with pytest.raises(ValueError, match="unknown arena"):
        make_arena("paxos")


def test_arena_bases_strip_faults_and_fill_baselines(arena):
    assert arena.base.faults == []
    assert arena.profile.n == 21
    assert set(arena.baselines) == {0, 1}
    for stats in arena.baselines.values():
        assert stats["blocks"] > 0
        assert stats["mean_latency"] > 0
    assert arena.max_events == arena.max_events_factor * max(
        int(stats["events"]) for stats in arena.baselines.values()
    )


def test_harmless_attack_scores_near_unity(arena):
    # An empty schedule is the baseline run itself: degradation 1.0.
    result = evaluate_attack(arena, [], (), "latency")
    assert result["degradation"] == pytest.approx(1.0)
    for entry in result["per_seed"]:
        assert entry["recovered"] is True
        assert entry["timed_out"] is False
        assert entry["committed_ratio"] == pytest.approx(1.0)


def test_liveness_kill_scores_finite_and_reports_degradation(arena):
    # Partition the cluster below quorum for the whole run: nothing can
    # commit, yet the censored metric stays finite and the per-seed
    # entries say exactly what happened (graceful degradation, not a
    # hang or a div-zero).
    groups = (tuple(range(1, 8)), (0,) + tuple(range(8, 21)))
    spec = FaultSpec(
        kind="partition", start=0.0, end=DURATION, params={"groups": groups}
    )
    result = evaluate_attack(arena, [spec], groups[0], "latency")
    assert result["degradation"] > 1.0
    assert result["degradation"] < float("inf")
    for entry in result["per_seed"]:
        assert entry["blocks"] < entry["baseline_blocks"]
        assert entry["censored_latency"] <= DURATION


def test_worst_of_seeds_is_the_minimum(arena):
    spec = FaultSpec(
        kind="loss",
        start=0.0,
        end=DURATION,
        params={"rate": 0.05, "senders": (18, 19, 20)},
    )
    result = evaluate_attack(arena, [spec], (18, 19, 20), "latency")
    per_seed = [entry["degradation"] for entry in result["per_seed"]]
    assert result["degradation"] == min(per_seed)


def test_evaluation_is_deterministic_and_jobs_identical(arena):
    genome = AttackGenome(
        victims=(18, 19, 20),
        moves=(AttackMove(kind="stealth"), AttackMove(kind="crash", start=8, end=16)),
    )
    budget = AdversaryBudget()
    serial = evaluate_genome(arena, budget, "latency", genome, jobs=1)
    again = evaluate_genome(arena, budget, "latency", genome, jobs=1)
    pooled = evaluate_genome(arena, budget, "latency", genome, jobs=2)
    assert json.dumps(serial, sort_keys=True) == json.dumps(again, sort_keys=True)
    assert json.dumps(serial, sort_keys=True) == json.dumps(pooled, sort_keys=True)


def test_invalid_genome_reports_invalid_not_crash(arena):
    over = AttackGenome(
        victims=tuple(range(14, 21)), moves=(AttackMove(kind="stealth"),)
    )
    result = evaluate_genome(arena, AdversaryBudget(), "latency", over)
    assert result["degradation"] is None
    assert "max_faulty" in result["invalid"]


def test_suspicion_objective_needs_optilog(arena):
    with pytest.raises(ValueError, match="OptiAware"):
        evaluate_attack(arena, [], (), "suspicion")
    with pytest.raises(ValueError, match="unknown objective"):
        evaluate_attack(arena, [], (), "throughput")


def test_references_rebuild_on_arena_ground(arena):
    refs = reference_attacks(arena)
    assert [name for name, _faults, _victims in refs] == list(arena.references)
    for _name, faults, victims in refs:
        # Reference schedules scale to the arena duration.
        assert all(spec.start <= DURATION for spec in faults)
        assert all(0 <= v < arena.profile.n for v in victims)
    # Every registered arena names only registered scenarios.
    for name, (base, references, _duration) in ARENA_SOURCES.items():
        assert base in references or base not in references  # shape only
        assert isinstance(references, tuple) and references


def test_best_reference_degradation_picks_max():
    refs = [
        {"degradation": 1.5},
        {"degradation": None},
        {"degradation": 4.0},
    ]
    assert best_reference_degradation(refs) == 4.0
    assert best_reference_degradation([{"degradation": None}]) is None


# ----------------------------------------------------------------------
# Synthesis pins.  Searches are seeded and event-budgeted, so their
# outcomes repeat exactly; a behaviour-changing PR re-records the
# literals on purpose.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quick_arena():
    arena = make_arena("pbft", duration=4.0, seeds=(0,))
    ensure_baselines(arena)
    return arena


def test_quick_search_is_pinned_and_beats_every_reference(quick_arena):
    references = {
        ref["name"]: ref["degradation"]
        for ref in evaluate_references(quick_arena, "latency")
    }
    report = attack_search(
        quick_arena,
        AdversaryBudget(max_faulty=6),
        "latency",
        seed=0,
        restarts=2,
        schedule=replace(DEFAULT_SCHEDULE, iterations=8),
    )
    best = report["best"]
    assert references == {
        "partition-heal": 4.040662963394356,
        "lossy-wan": 3.9860411734233763,
    }
    assert report["scenario_runs"] == 13
    assert best["label"] == (
        "genome victims=[13, 15, 17, 18, 19, 20] moves=partition[0:32]"
    )
    assert best["degradation"] == 25.10447796703234
    # PR 9's acceptance criterion: the synthesized adversary strictly
    # beats the strongest hand-authored scenario on the same arena.
    assert best["degradation"] > max(references.values())


def test_seed_genome_degradations_are_pinned(quick_arena):
    budget = AdversaryBudget(max_faulty=6)
    degradations = {}
    for variant in range(6):
        genome = seed_genome(budget, quick_arena.profile, variant=variant)
        evaluation = evaluate_genome(quick_arena, budget, "latency", genome)
        degradations[genome.moves[0].kind] = round(evaluation["degradation"], 6)
    assert degradations == {
        "churn": 1.008348,
        "crash": 6.987406,
        "delay": 1.0,
        "loss": 1.005554,
        "partition": 16.067921,
        "stealth": 1.000187,
    }
