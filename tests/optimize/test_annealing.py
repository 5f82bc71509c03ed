"""The annealing schedule, and the full-scoring reference loop
(``oracles.anneal``) that ``test_incremental_annealing.py`` holds the
shipped ``anneal_incremental`` equal to."""

import random

import pytest

from oracles import anneal
from repro.optimize.annealing import AnnealingSchedule


def quadratic_score(x: float) -> float:
    return (x - 3.0) ** 2


def step_mutate(x: float, rng: random.Random) -> float:
    return x + rng.uniform(-0.5, 0.5)


def test_anneal_minimises_quadratic():
    result = anneal(
        10.0,
        quadratic_score,
        step_mutate,
        random.Random(1),
        AnnealingSchedule(iterations=5000, initial_temperature=1.0),
    )
    assert abs(result.best_state - 3.0) < 0.5
    assert result.best_score < result.initial_score


def test_anneal_deterministic_for_seed():
    schedule = AnnealingSchedule(iterations=500)
    a = anneal(10.0, quadratic_score, step_mutate, random.Random(7), schedule)
    b = anneal(10.0, quadratic_score, step_mutate, random.Random(7), schedule)
    assert a.best_state == b.best_state
    assert a.best_score == b.best_score


def test_infeasible_states_never_accepted():
    def score(x):
        return float("inf") if x > 0 else -x

    def mutate(x, rng):
        return x + rng.uniform(0.0, 1.0)  # pushes towards infeasible

    result = anneal(
        -5.0, score, mutate, random.Random(2), AnnealingSchedule(iterations=200)
    )
    assert result.best_score != float("inf")
    assert result.best_state <= 0


def test_convergence_flag_set_when_cooled():
    schedule = AnnealingSchedule(
        iterations=10_000, initial_temperature=1.0, cooling=0.5, min_temperature=0.1
    )
    result = anneal(0.0, quadratic_score, step_mutate, random.Random(3), schedule)
    assert result.converged
    assert result.iterations_used < 10_000


def test_budget_respected():
    schedule = AnnealingSchedule(iterations=17, cooling=1.0)
    result = anneal(0.0, quadratic_score, step_mutate, random.Random(4), schedule)
    assert result.iterations_used == 17


def test_for_search_time_scales_iterations():
    short = AnnealingSchedule.for_search_time(0.25)
    long = AnnealingSchedule.for_search_time(4.0)
    assert long.iterations == 16 * short.iterations


def test_improvement_metric():
    result = anneal(
        10.0,
        quadratic_score,
        step_mutate,
        random.Random(5),
        AnnealingSchedule(iterations=3000),
    )
    assert 0.0 < result.improvement <= 1.0


@pytest.mark.parametrize(
    "field,value",
    [
        ("iterations", -1),
        ("cooling", 0.0),
        ("cooling", 1.0001),
        ("cooling", float("nan")),
        ("initial_temperature", -0.05),
        ("min_temperature", -1e-4),
    ],
)
def test_schedule_rejects_out_of_range_fields(field, value):
    with pytest.raises(ValueError, match=field):
        AnnealingSchedule(**{field: value})
    # The closed ends are legal.
    AnnealingSchedule(iterations=0, cooling=1.0, initial_temperature=0.0, min_temperature=0.0)
