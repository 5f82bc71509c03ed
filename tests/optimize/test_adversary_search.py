"""Adversary synthesis: engine contract, determinism, jobs identity."""

import dataclasses
import json
import random

import pytest

from repro.experiments.attack import ensure_baselines, make_arena
from repro.faults.genome import AdversaryBudget
from repro.optimize.adversary import DEFAULT_SCHEDULE, AttackSearchEngine, attack_search
from repro.optimize.annealing import anneal_incremental

BUDGET = AdversaryBudget(max_faulty=6)


@pytest.fixture(scope="module")
def arena():
    arena = make_arena("pbft", duration=2.0, seeds=(0,))
    ensure_baselines(arena)
    return arena


def _schedule(iterations):
    return dataclasses.replace(DEFAULT_SCHEDULE, iterations=iterations)


def test_engine_scores_are_negated_degradation(arena):
    engine = AttackSearchEngine(arena, BUDGET, "latency")
    score = engine.initial_score()
    assert score < 0.0  # finite degradation >= some positive ratio
    genome, evaluation = engine.snapshot()
    assert evaluation["degradation"] == pytest.approx(-score)
    assert engine.evaluations == 1
    assert engine.scenario_runs == len(arena.seeds)


def test_engine_caches_revisited_genomes(arena):
    engine = AttackSearchEngine(arena, BUDGET, "latency")
    engine.initial_score()
    rng = random.Random(5)
    mutation = engine.propose(rng)
    first = engine.delta_score(mutation)
    evals_after_first = engine.evaluations
    assert engine.delta_score(mutation) == first
    assert engine.evaluations == evals_after_first  # cache hit, no rerun


def test_annealed_engine_never_accepts_invalid_states(arena):
    engine = AttackSearchEngine(arena, BUDGET, "latency")
    result = anneal_incremental(engine, random.Random(2), _schedule(12))
    best_genome, best_evaluation = result.best_state
    assert best_evaluation["degradation"] is not None
    assert result.best_score < float("inf")
    specs_victims = best_evaluation["genome"]["victims"]
    assert 0 not in specs_victims


def test_attack_search_is_deterministic(arena):
    kwargs = dict(
        objective="latency", seed=7, restarts=2, schedule=_schedule(4)
    )
    first = attack_search(arena, BUDGET, **kwargs)
    second = attack_search(arena, BUDGET, **kwargs)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_attack_search_jobs_byte_identity_chain_parallel(arena):
    # restarts > 1: the pool shards chains.
    kwargs = dict(
        objective="latency", seed=0, restarts=2, schedule=_schedule(4)
    )
    serial = attack_search(arena, BUDGET, jobs=1, **kwargs)
    pooled = attack_search(arena, BUDGET, jobs=2, **kwargs)
    assert json.dumps(serial, sort_keys=True) == json.dumps(pooled, sort_keys=True)


def test_attack_search_jobs_byte_identity_seed_parallel():
    # restarts == 1: the pool shards per-seed evaluations instead.
    arena = make_arena("pbft", duration=2.0, seeds=(0, 1))
    ensure_baselines(arena)
    kwargs = dict(
        objective="latency", seed=0, restarts=1, schedule=_schedule(3)
    )
    serial = attack_search(arena, BUDGET, jobs=1, **kwargs)
    pooled = attack_search(arena, BUDGET, jobs=2, **kwargs)
    assert json.dumps(serial, sort_keys=True) == json.dumps(pooled, sort_keys=True)


def test_attack_search_report_shape(arena):
    report = attack_search(
        arena, BUDGET, objective="latency", seed=1, restarts=2,
        schedule=_schedule(4),
    )
    assert report["arena"] == "pbft"
    assert report["budget"]["max_faulty"] == 6
    assert len(report["chains"]) == 2
    assert report["scenario_runs"] == sum(
        chain["scenario_runs"] for chain in report["chains"]
    )
    best = report["best"]
    assert best["degradation"] == max(
        chain["best_degradation"] for chain in report["chains"]
    )
    assert best["evaluation"]["per_seed"]
    assert "liveness" not in best  # per-seed entries carry recovery detail
    for entry in best["evaluation"]["per_seed"]:
        assert "recovered" in entry and "timed_out" in entry
    # Chains start from *different* seed-genome families (restart
    # diversity), visible in their initial degradations or genomes.
    assert report["restarts"] == 2


def test_attack_search_rejects_bad_restarts(arena):
    with pytest.raises(ValueError, match="restarts"):
        attack_search(arena, BUDGET, restarts=0)
