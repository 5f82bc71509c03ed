"""The adversary-synthesis strategy space: genomes, budgets, compiler.

The five hand-authored scenarios in ``experiments/scenarios.py`` are
single points in a huge coordinated-attack space.  This module makes
that space *searchable*: an :class:`AttackGenome` is a small, immutable,
picklable description of a coordinated strategy -- which replicas the
adversary controls and what timed moves they make -- that
:func:`compile_genome` lowers deterministically into the
:class:`~repro.faults.schedule.FaultSpec` vocabulary, under an explicit
:class:`AdversaryBudget`.

Design rules (all load-bearing for the search):

* **Quantized genotype.**  Times and intensities live on an integer grid
  (``GRID`` steps per run), not raw floats: mutations are grid hops, two
  genomes are equal iff their tuples are equal (hashable -> evaluation
  cache), and JSON round-trips are exact.  The phenotype scales with the
  arena duration, like the hand-authored scenarios.
* **Budget as hard constraint, not penalty.**  ``compile_genome`` raises
  :class:`GenomeError` for any strategy outside the budget (too many
  victims, stealth above the δ-bound, loss above the cap...).  The
  search scores such genomes ``inf`` -- the annealer's infeasible-state
  convention -- so the frontier axis (budget) is exact, never traded
  against the objective.
* **Attributable faults only.**  Every compiled fault is something the
  *victim replicas* could actually do: loss drops only victim-sent
  traffic, partitions cut the victim set off, smears come from the
  victim pool.  Cluster-wide acts of God (e.g. lossy-wan's all-links
  loss) stay hand-authored reference points outside the genome space.
* **Determinism.**  Compilation is a pure function of
  ``(genome, budget, arena)``; mutation draws only from the caller's
  RNG.  Together with the seeded scenario runner this makes a whole
  attack search replayable bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.faults.schedule import FaultSpec, validate_fault_composition

#: Genotype resolution: windows/levels are integers on ``[0, GRID]``.
GRID = 32

#: Every move kind the genome can express, each lowering to one
#: ``FaultSpec``.  ``stealth`` is the δ-bounded adaptive delay (the
#: Fig. 11 adversary), ``smear`` the Fig. 10 false-suspicion campaign.
MOVE_KINDS = ("stealth", "delay", "crash", "churn", "partition", "loss", "smear")


class GenomeError(ValueError):
    """A genome outside its budget or arena; the search scores it inf."""


@dataclass(frozen=True)
class AdversaryBudget:
    """What the adversary is allowed, independent of what it chooses.

    ``max_faulty``     -- replicas under adversary control (the f of the
                          robustness frontier's x-axis).
    ``delta``          -- δ-bound for stealth delays: links may stretch
                          up to ``delta * d_m`` (the suspicion budget).
    ``max_loss_rate``  -- cap on victim-sent message drop probability.
    ``max_extra_delay``-- cap on fixed per-message extra delay (seconds).
    ``max_moves``      -- schedule complexity cap.
    """

    max_faulty: int = 3
    delta: float = 1.25
    max_loss_rate: float = 0.05
    max_extra_delay: float = 0.5
    max_moves: int = 4

    def __post_init__(self) -> None:
        if self.max_faulty < 1:
            raise ValueError(f"budget max_faulty must be >= 1, got {self.max_faulty}")
        if self.delta < 1.0:
            raise ValueError(
                f"budget delta must be >= 1 (no stretch), got {self.delta}"
            )
        if not 0.0 <= self.max_loss_rate <= 1.0:
            raise ValueError(
                f"budget max_loss_rate must be in [0, 1], got {self.max_loss_rate}"
            )
        if self.max_extra_delay < 0:
            raise ValueError(
                f"budget max_extra_delay must be >= 0, got {self.max_extra_delay}"
            )
        if self.max_moves < 1:
            raise ValueError(f"budget max_moves must be >= 1, got {self.max_moves}")


@dataclass(frozen=True)
class ArenaProfile:
    """The compile-relevant shape of the battlefield.

    Carried by the evaluation arena (``experiments/attack.py``) and by
    tests; deliberately tiny and picklable so it rides to pool workers.
    ``family`` picks protocol-appropriate message types for targeted
    delays; ``has_optilog`` gates the smear move (false suspicions need
    the OptiAware monitoring pipeline to land on).
    """

    n: int
    family: str  # "pbft" | "hotstuff" | "kauri"
    duration: float
    has_optilog: bool = False

    def __post_init__(self) -> None:
        if self.family not in ("pbft", "hotstuff", "kauri"):
            raise ValueError(f"unknown protocol family {self.family!r}")
        if self.n < 2 or self.duration <= 0:
            raise ValueError(
                f"arena needs n >= 2 and positive duration, got "
                f"n={self.n}, duration={self.duration}"
            )


#: The message type a targeted fixed delay hits per family: the leader's
#: proposal dissemination, where one slow link stalls the whole round.
_DELAY_TARGETS = {
    "pbft": ("PrePrepare",),
    "hotstuff": ("Proposal",),
    "kauri": ("Forward",),
}


@dataclass(frozen=True)
class AttackMove:
    """One timed move: ``kind`` active on grid window ``[start, end]``.

    ``victim`` indexes into the genome's victim tuple (modulo its
    length) for single-victim kinds; ``level`` scales the kind's
    intensity knob to its budget cap; ``aux`` is the kind's secondary
    knob (churn duty cycle, smear rounds).  All integers, all bounded,
    so every mutation stays in a finite well-defined space.
    """

    kind: str
    start: int = 0
    end: int = GRID
    victim: int = 0
    level: int = GRID
    aux: int = 0

    def __post_init__(self) -> None:
        if self.kind not in MOVE_KINDS:
            raise ValueError(
                f"unknown move kind {self.kind!r} (known: {', '.join(MOVE_KINDS)})"
            )
        if not 0 <= self.start < self.end <= GRID:
            raise ValueError(
                f"move window [{self.start}, {self.end}] must satisfy "
                f"0 <= start < end <= {GRID}"
            )
        if not 1 <= self.level <= GRID:
            raise ValueError(f"move level must be in [1, {GRID}], got {self.level}")
        if not 0 <= self.aux <= GRID:
            raise ValueError(f"move aux must be in [0, {GRID}], got {self.aux}")
        if self.victim < 0:
            raise ValueError(f"move victim index must be >= 0, got {self.victim}")


@dataclass(frozen=True)
class AttackGenome:
    """A coordinated strategy: who the adversary controls, what they do."""

    victims: Tuple[int, ...]
    moves: Tuple[AttackMove, ...] = field(default_factory=tuple)

    def canonical(self) -> "AttackGenome":
        """Sorted victims and moves: equal strategies compare equal."""
        return AttackGenome(
            victims=tuple(sorted(self.victims)),
            moves=tuple(sorted(self.moves, key=_move_key)),
        )


def _move_key(move: AttackMove) -> Tuple:
    return (move.kind, move.start, move.end, move.victim, move.level, move.aux)


def _times(move: AttackMove, duration: float) -> Tuple[float, float]:
    return duration * move.start / GRID, duration * move.end / GRID


def compile_genome(
    genome: AttackGenome, budget: AdversaryBudget, arena: ArenaProfile
) -> List[FaultSpec]:
    """Lower a genome to a validated ``FaultSpec`` list.

    Pure and deterministic; raises :class:`GenomeError` when the genome
    exceeds its budget or does not fit the arena, and ``ValueError``
    (from the spec/composition validators) when the lowered schedule is
    internally inconsistent -- the search maps both to an ``inf`` score.
    """
    victims = genome.victims
    if not victims:
        raise GenomeError("genome has no victims")
    if len(set(victims)) != len(victims):
        raise GenomeError(f"duplicate victims in {victims}")
    if any(not 0 <= v < arena.n for v in victims):
        raise GenomeError(f"victims {victims} outside arena of n={arena.n}")
    if 0 in victims:
        # Replica 0 is the runner's measurement observer; an adversary
        # that crashes the probe would score phantom degradation.
        raise GenomeError("replica 0 is the measurement observer and assumed correct")
    if len(victims) > budget.max_faulty:
        raise GenomeError(
            f"{len(victims)} victims exceed budget max_faulty={budget.max_faulty}"
        )
    if len(victims) >= arena.n:
        raise GenomeError(f"cannot control all {arena.n} replicas")
    if len(genome.moves) > budget.max_moves:
        raise GenomeError(
            f"{len(genome.moves)} moves exceed budget max_moves={budget.max_moves}"
        )
    kinds = [move.kind for move in genome.moves]
    if kinds.count("partition") > 1:
        raise GenomeError("at most one partition move per genome")
    if kinds.count("churn") > 1:
        raise GenomeError("at most one churn move per genome")
    if "churn" in kinds and "crash" in kinds:
        raise GenomeError(
            "churn and crash moves are mutually exclusive (a churn cycle "
            "could crash an already-crashed victim, making the schedule "
            "that ran differ from the schedule that was written)"
        )
    if "smear" in kinds and not arena.has_optilog:
        raise GenomeError(
            "smear move needs an OptiAware arena (false suspicions land "
            "on the monitoring pipeline)"
        )

    duration = arena.duration
    specs: List[FaultSpec] = []
    for move in genome.moves:
        start, end = _times(move, duration)
        fraction = move.level / GRID
        victim = victims[move.victim % len(victims)]
        if move.kind == "stealth":
            # Adaptive δ-bounded delay on everything the victims send;
            # level sets how close to the δ·d_m ceiling they fly.
            specs.append(
                FaultSpec(
                    kind="delta_delay",
                    start=start,
                    end=end,
                    attacker=tuple(victims),
                    params={
                        "delta": budget.delta,
                        "adaptive": True,
                        "headroom": round(0.5 + 0.45 * fraction, 6),
                    },
                )
            )
        elif move.kind == "delay":
            specs.append(
                FaultSpec(
                    kind="delay",
                    start=start,
                    end=end,
                    attacker=victim,
                    extra_delay=round(budget.max_extra_delay * fraction, 6),
                    message_types=_DELAY_TARGETS[arena.family],
                )
            )
        elif move.kind == "crash":
            specs.append(
                FaultSpec(kind="crash", start=start, end=end, attacker=victim)
            )
        elif move.kind == "churn":
            # Level is monotone in aggression for every kind: a higher
            # level means a *shorter* cycle here, not a longer one.
            period = duration * max(1, GRID + 1 - move.level) / GRID
            if end - start < period:
                raise GenomeError(
                    f"churn window [{start}, {end}] shorter than one "
                    f"period ({period}); the cycle would never fire"
                )
            specs.append(
                FaultSpec(
                    kind="churn",
                    start=start,
                    end=end,
                    params={
                        "period": period,
                        "downtime": period * (0.25 + 0.5 * move.aux / GRID),
                        "victims": tuple(victims),
                        "random": False,
                    },
                )
            )
        elif move.kind == "partition":
            rest = tuple(r for r in range(arena.n) if r not in victims)
            specs.append(
                FaultSpec(
                    kind="partition",
                    start=start,
                    end=end,
                    params={"groups": (tuple(victims), rest)},
                )
            )
        elif move.kind == "loss":
            specs.append(
                FaultSpec(
                    kind="loss",
                    start=start,
                    end=end,
                    params={
                        "rate": round(budget.max_loss_rate * fraction, 6),
                        "senders": tuple(victims),
                    },
                )
            )
        elif move.kind == "smear":
            specs.append(
                FaultSpec(
                    kind="false_suspicion",
                    start=start,
                    end=end,
                    attacker=tuple(victims),
                    params={
                        "target": "leader",
                        # Same monotone rule: level up = volleys closer
                        # together, aux up = more suspicions per volley.
                        "period": duration * max(1, GRID + 1 - move.level) / (2 * GRID),
                        "rounds": 1 + (7 * move.aux) // GRID,
                    },
                )
            )
    validate_fault_composition(specs)
    return specs


def allowed_kinds(arena: ArenaProfile) -> Tuple[str, ...]:
    """The move kinds a given arena can express (smear needs OptiAware)."""
    if arena.has_optilog:
        return MOVE_KINDS
    return tuple(kind for kind in MOVE_KINDS if kind != "smear")


#: Seed rotation for multi-restart searches: chain ``i`` starts from a
#: whole-run move of ``_SEED_KINDS[i % len]`` (filtered per arena), so
#: restarts explore genuinely different basins instead of re-annealing
#: the same stealth opening.  Order is part of the determinism contract.
_SEED_KINDS = ("stealth", "partition", "crash", "loss", "delay", "churn", "smear")


def seed_genome(
    budget: AdversaryBudget,
    arena: ArenaProfile,
    variant: int = 0,
    prefer: Optional[str] = None,
) -> AttackGenome:
    """A deterministic, always-valid starting strategy.

    The highest-id replicas (the hand-authored scenarios' convention)
    make one whole-run move; ``variant`` rotates through
    :data:`_SEED_KINDS` so independent restart chains start in
    different attack families.  ``prefer`` hoists one kind to the front
    of the rotation (the search puts ``smear`` first for the suspicion
    objective, where every other opening scores zero).  Every variant
    compiles under any legal budget and scores finite (the evaluator's
    censoring keeps even a liveness-killing opening finite).
    """
    k = min(budget.max_faulty, arena.n - 1)
    victims = tuple(range(arena.n - k, arena.n))
    kinds = [kind for kind in _SEED_KINDS if kind in allowed_kinds(arena)]
    if prefer in kinds:
        kinds.remove(prefer)
        kinds.insert(0, prefer)
    kind = kinds[variant % len(kinds)]
    # aux at the ceiling: max volleys for smear, max downtime for churn,
    # inert elsewhere -- the opening move is the kind at full aggression.
    return AttackGenome(
        victims=victims, moves=(AttackMove(kind=kind, aux=GRID),)
    ).canonical()


#: Mutation operator vocabulary, fixed order (part of the determinism
#: contract: a search replays bit-for-bit given the same seed).
_MUTATION_OPS = ("tweak", "window", "add", "drop", "retarget", "rekind", "victims")


def mutate(
    genome: AttackGenome,
    rng: random.Random,
    budget: AdversaryBudget,
    arena: ArenaProfile,
) -> AttackGenome:
    """One random edit, drawn entirely from ``rng``.

    Edits stay inside the grid but may leave the budget (e.g. growing
    past ``max_moves`` is prevented here, but a crash window sliding
    into a partition is not) -- the compiler is the single source of
    truth for validity, and the search scores invalid offspring ``inf``.
    """
    op = rng.choice(_MUTATION_OPS)
    moves = list(genome.moves)
    victims = genome.victims
    kinds = allowed_kinds(arena)

    if op == "add" and len(moves) < budget.max_moves:
        moves.append(_random_move(rng, kinds))
    elif op == "drop" and len(moves) > 1:
        moves.pop(rng.randrange(len(moves)))
    elif op == "victims":
        victims = _mutate_victims(victims, rng, budget, arena)
    elif moves:
        index = rng.randrange(len(moves))
        move = moves[index]
        if op == "tweak":
            step = rng.choice((-4, -2, -1, 1, 2, 4))
            if rng.random() < 0.5:
                move = dataclasses.replace(
                    move, level=max(1, min(GRID, move.level + step))
                )
            else:
                move = dataclasses.replace(
                    move, aux=max(0, min(GRID, move.aux + step))
                )
        elif op == "window":
            step = rng.choice((-4, -2, -1, 1, 2, 4))
            if rng.random() < 0.5:
                start = max(0, min(move.end - 1, move.start + step))
                move = dataclasses.replace(move, start=start)
            else:
                end = max(move.start + 1, min(GRID, move.end + step))
                move = dataclasses.replace(move, end=end)
        elif op == "retarget":
            move = dataclasses.replace(
                move, victim=rng.randrange(max(1, len(victims)))
            )
        elif op == "rekind":
            move = dataclasses.replace(move, kind=rng.choice(kinds))
        moves[index] = move

    return AttackGenome(victims=victims, moves=tuple(moves)).canonical()


def _random_move(rng: random.Random, kinds: Tuple[str, ...]) -> AttackMove:
    start = rng.randrange(0, GRID)
    return AttackMove(
        kind=rng.choice(kinds),
        start=start,
        end=rng.randrange(start + 1, GRID + 1),
        victim=rng.randrange(4),
        level=rng.randrange(1, GRID + 1),
        aux=rng.randrange(0, GRID + 1),
    )


def _mutate_victims(
    victims: Tuple[int, ...],
    rng: random.Random,
    budget: AdversaryBudget,
    arena: ArenaProfile,
) -> Tuple[int, ...]:
    """Swap, grow, or shrink the victim set within [1, max_faulty].

    Replica 0 (the measurement observer) is never recruited.
    """
    pool = sorted(set(range(1, arena.n)) - set(victims))
    choice = rng.random()
    current = list(victims)
    if choice < 0.5 and pool:  # swap one victim for an outsider
        current[rng.randrange(len(current))] = rng.choice(pool)
    elif choice < 0.75 and pool and len(current) < min(
        budget.max_faulty, arena.n - 1
    ):
        current.append(rng.choice(pool))
    elif len(current) > 1:
        current.pop(rng.randrange(len(current)))
    return tuple(sorted(set(current)))


# ---------------------------------------------------------------------------
# JSON round-trip (reports, frontier artifacts, resuming a search)
# ---------------------------------------------------------------------------


def genome_to_dict(genome: AttackGenome) -> Dict[str, Any]:
    return {
        "victims": list(genome.victims),
        "moves": [dataclasses.asdict(move) for move in genome.moves],
    }
