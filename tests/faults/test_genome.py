"""The adversary genome: budgets, compilation, mutation, round-trips."""

import random

import pytest

from repro.experiments.runner import FaultSpec
from repro.faults.genome import (
    GRID,
    AdversaryBudget,
    ArenaProfile,
    AttackGenome,
    AttackMove,
    GenomeError,
    allowed_kinds,
    compile_genome,
    mutate,
    seed_genome,
)

ARENA = ArenaProfile(n=7, family="pbft", duration=8.0)
AWARE = ArenaProfile(n=7, family="pbft", duration=8.0, has_optilog=True)
BUDGET = AdversaryBudget(max_faulty=3)


# ----------------------------------------------------------------------
# Budget / move / profile validation
# ----------------------------------------------------------------------
def test_budget_rejects_nonsense():
    with pytest.raises(ValueError, match="max_faulty"):
        AdversaryBudget(max_faulty=0)
    with pytest.raises(ValueError, match="delta"):
        AdversaryBudget(delta=0.5)
    with pytest.raises(ValueError, match="max_loss_rate"):
        AdversaryBudget(max_loss_rate=1.5)
    with pytest.raises(ValueError, match="max_moves"):
        AdversaryBudget(max_moves=0)


def test_move_windows_live_on_the_grid():
    with pytest.raises(ValueError, match="window"):
        AttackMove(kind="crash", start=5, end=5)
    with pytest.raises(ValueError, match="window"):
        AttackMove(kind="crash", start=-1, end=4)
    with pytest.raises(ValueError, match="window"):
        AttackMove(kind="crash", start=0, end=GRID + 1)
    with pytest.raises(ValueError, match="kind"):
        AttackMove(kind="meteor")


def test_profile_validates_family_and_size():
    with pytest.raises(ValueError, match="family"):
        ArenaProfile(n=4, family="raft", duration=1.0)
    with pytest.raises(ValueError, match="n >= 2"):
        ArenaProfile(n=1, family="pbft", duration=1.0)


# ----------------------------------------------------------------------
# Compilation: validity rules
# ----------------------------------------------------------------------
def test_compile_lowers_every_kind_to_fault_specs():
    genome = AttackGenome(
        victims=(4, 5, 6),
        moves=(
            AttackMove(kind="stealth", start=0, end=16),
            AttackMove(kind="crash", start=16, end=24, victim=0),
            AttackMove(kind="loss", start=0, end=32, level=16),
        ),
    )
    specs = compile_genome(genome, BUDGET, ARENA)
    assert [spec.kind for spec in specs] == ["delta_delay", "crash", "loss"]
    assert all(isinstance(spec, FaultSpec) for spec in specs)
    # Grid windows scale to arena time.
    assert specs[0].start == 0.0 and specs[0].end == 4.0
    assert specs[1].start == 4.0 and specs[1].end == 6.0
    # Loss at half level is half the budget cap, victims-sent only.
    assert specs[2].params["rate"] == pytest.approx(BUDGET.max_loss_rate / 2)
    assert specs[2].params["senders"] == (4, 5, 6)


def test_compile_rejects_budget_violations():
    over = AttackGenome(victims=(3, 4, 5, 6), moves=(AttackMove(kind="stealth"),))
    with pytest.raises(GenomeError, match="max_faulty"):
        compile_genome(over, BUDGET, ARENA)
    crowded = AttackGenome(
        victims=(6,), moves=tuple(AttackMove(kind="stealth") for _ in range(5))
    )
    with pytest.raises(GenomeError, match="max_moves"):
        compile_genome(crowded, BUDGET, ARENA)
    with pytest.raises(GenomeError, match="no victims"):
        compile_genome(AttackGenome(victims=()), BUDGET, ARENA)


def test_compile_protects_the_observer():
    # Replica 0 is the measurement observer: recruiting it would let the
    # adversary score phantom degradation by crashing the probe.
    probe = AttackGenome(victims=(0, 6), moves=(AttackMove(kind="stealth"),))
    with pytest.raises(GenomeError, match="observer"):
        compile_genome(probe, BUDGET, ARENA)


def test_compile_gates_smear_on_optilog():
    smear = AttackGenome(victims=(5, 6), moves=(AttackMove(kind="smear"),))
    with pytest.raises(GenomeError, match="OptiAware"):
        compile_genome(smear, BUDGET, ARENA)
    specs = compile_genome(smear, BUDGET, AWARE)
    assert specs[0].kind == "false_suspicion"
    assert specs[0].attacker == (5, 6)


def test_compile_forbids_churn_crash_mix():
    mixed = AttackGenome(
        victims=(5, 6),
        moves=(AttackMove(kind="churn"), AttackMove(kind="crash")),
    )
    with pytest.raises(GenomeError, match="mutually exclusive"):
        compile_genome(mixed, BUDGET, ARENA)


def test_compile_runs_the_composition_validator():
    # Two whole-run crashes of the same victim lower to overlapping
    # crash windows -- the construction-time composition check fires.
    double = AttackGenome(
        victims=(6,),
        moves=(
            AttackMove(kind="crash", start=0, end=20, victim=0),
            AttackMove(kind="crash", start=10, end=32, victim=0),
        ),
    )
    with pytest.raises(ValueError, match="overlapping"):
        compile_genome(double, BUDGET, ARENA)


def test_level_is_monotone_in_aggression_for_cyclic_kinds():
    def period_of(kind, level, arena):
        move = AttackMove(kind=kind, level=level, aux=GRID)
        genome = AttackGenome(victims=(5, 6), moves=(move,))
        return compile_genome(genome, BUDGET, arena)[0].params["period"]

    assert period_of("churn", GRID, ARENA) < period_of("churn", 1, ARENA)
    assert period_of("smear", GRID, AWARE) < period_of("smear", 1, AWARE)


# ----------------------------------------------------------------------
# Seeds, mutation, round-trip
# ----------------------------------------------------------------------
def test_seed_genomes_compile_for_every_variant():
    for arena in (ARENA, AWARE):
        for variant in range(len(allowed_kinds(arena))):
            genome = seed_genome(BUDGET, arena, variant=variant)
            specs = compile_genome(genome, BUDGET, arena)
            assert specs, (arena, variant)
            assert 0 not in genome.victims


def test_seed_rotation_prefers_requested_kind():
    plain = seed_genome(BUDGET, AWARE, variant=0)
    smear_first = seed_genome(BUDGET, AWARE, variant=0, prefer="smear")
    assert plain.moves[0].kind == "stealth"
    assert smear_first.moves[0].kind == "smear"


def test_mutation_is_deterministic_and_stays_on_grid():
    rng_a, rng_b = random.Random(11), random.Random(11)
    genome = seed_genome(BUDGET, ARENA)
    for _ in range(200):
        a = mutate(genome, rng_a, BUDGET, ARENA)
        b = mutate(genome, rng_b, BUDGET, ARENA)
        assert a == b
        for move in a.moves:
            assert 0 <= move.start < move.end <= GRID
            assert 1 <= move.level <= GRID
        assert 0 not in a.victims
        assert len(a.moves) <= BUDGET.max_moves
        genome = a


def test_canonical_form_makes_equal_strategies_equal():
    forward = AttackGenome(
        victims=(6, 4),
        moves=(AttackMove(kind="loss"), AttackMove(kind="crash")),
    ).canonical()
    backward = AttackGenome(
        victims=(4, 6),
        moves=(AttackMove(kind="crash"), AttackMove(kind="loss")),
    ).canonical()
    assert forward == backward
    assert hash(forward) == hash(backward)

