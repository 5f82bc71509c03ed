"""Reference implementations the package no longer ships.

Each is the straightforward pre-optimisation form of something under
``src/repro`` and exists only so a test can demand equal results:

* :func:`quorum_formation_time`, :func:`round_duration_scalar` and
  :func:`weight_config_round_duration_scalar` -- the per-dict quorum scan
  and ``d_rnd`` behind the vectorized ``quorum_formation_times`` /
  ``PbftTimeouts.round_duration``;
* :func:`write_arrival` and :func:`accept_arrival` -- TR2's scalar
  ``d_m`` for one Write / Accept, behind ``PbftTimeouts.round_plan``;
* :func:`expected_messages_per_round` -- the per-round ``ExpectedMessage``
  list a PBFT replica used to build on every PrePrepare;
* :class:`PerRoundSuspicionSensor` -- the dict/set round bookkeeping the
  sensor used before rounds became :class:`~repro.core.roundplan.RoundPlan`
  slots and bitmasks;
* :func:`plan_from_expected` -- a ``RoundPlan`` from a hand-written
  ``ExpectedMessage`` list, so tests can state rounds message by message;
* :class:`AccumulatingPbftReplica` -- PBFT's Prepare / Commit handlers
  before the door: every vote accumulates and re-checks the quorum, and
  no accumulator dies;
* :func:`anneal` -- the classic annealing loop over immutable states
  and ``score``/``mutate`` closures, behind ``anneal_incremental``;
* :func:`mutate_tree` and :func:`optitree_search_full` -- OptiTree's
  search over immutable trees, every mutation re-scored from scratch by
  ``tree_score``, behind ``optitree_search``'s incremental engine;
* :class:`EveryProposalChecked` -- that engine with every ``delta_score``
  and every ``apply`` compared against a from-scratch computation;
  :class:`ScoreChecked` -- any annealing engine with its score re-derived
  after every ``apply``;
* :class:`RebuildChecked` -- a suspicion monitor whose incremental (C, G,
  K, u) is compared after every mutation against :func:`rebuilt_state`,
  the from-scratch derivation over its raw item deque;
* :func:`maximum_independent_set_reference` and
  :func:`greedy_independent_set_reference` -- the set-based MIS solvers
  behind the bitmask ones, and :func:`is_independent_set`, the check
  both answers must pass;
* :func:`haversine_km`, :func:`pair_rtt_ms` and
  :func:`verify_against_dense` -- the scalar great-circle distance, the
  scalar RTT formula for one pair, and the latency model's region table
  against that formula evaluated pair by pair.

And oracles that are not reference implementations:

* :func:`heap_only` -- a network whose every delivery is one heap entry
  popped by the engine: what the wide-row store must be
  indistinguishable from;
* :class:`DeliveryOrderRecorder` -- the order in which a network handed
  messages to handlers, one ``(sim.now, dst, src, class)`` row per
  handler call, wherever the row waited and whichever delivery path
  (terminal handler or inbox) made the call;
* :class:`BlockObserver` -- every block each node was handed, by height:
  the history of a run, which the chained engines no longer keep
  (a height's block is retired when it commits);
* :func:`per_height_entries` -- how many per-height / per-sequence
  bookkeeping entries a cluster's replicas hold right now.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.aware.score import weight_config_round_duration
from repro.consensus.messages import Commit
from repro.consensus.pbft import PbftReplica
from repro.core.records import SuspicionRecord
from repro.core.roundplan import ExpectedMessage, RoundPlan
from repro.core.suspicion import SuspicionSensor
from repro.core.timeouts import (
    PHASE_ACCEPT,
    PHASE_PROPOSE,
    PHASE_WRITE,
    PbftTimeouts,
)
from repro.net.cities import City
from repro.net.latency_model import (
    EARTH_RADIUS_KM,
    LOCAL_RTT_MS,
    MS_PER_KM,
    DelayProvider,
    LatencyModel,
)
from repro.optimize.annealing import AnnealingResult, AnnealingSchedule, State
from repro.optimize.graphs import Graph, ordered_edge
from repro.tree.candidates import TreeSuspicionMonitor, tree_candidates
from repro.tree.optitree import IncrementalTreeSearch, random_tree
from repro.tree.score import default_k, tree_score
from repro.tree.topology import TreeConfiguration


def quorum_formation_time(
    arrivals: Mapping[int, float],
    weights: Mapping[int, float],
    threshold: float,
) -> float:
    """Earliest time at which arrived messages reach ``threshold`` weight.

    This is the "min over quorums of max arrival" of Example C.1: sorting
    arrivals ascending and accumulating weight gives the fastest quorum.
    Returns ``inf`` when even all messages are too light.
    """
    total = 0.0
    for sender in sorted(arrivals, key=lambda s: (arrivals[s], s)):
        time = arrivals[sender]
        if math.isinf(time):
            break
        total += weights.get(sender, 0.0)
        if total >= threshold:
            return time
    return math.inf


def write_arrival(timeouts: PbftTimeouts, sender: int, receiver: int) -> float:
    """TR2: Write(sender→receiver) = propose-to-sender + link.

    The leader's Propose doubles as its own Write (BFT-SMaRt
    convention), so for ``sender == leader`` this is just the link.
    """
    return timeouts.propose_arrival(sender) + float(timeouts.latency[sender, receiver])


def accept_arrival(timeouts: PbftTimeouts, sender: int, receiver: int) -> float:
    """TR2: Accept(sender→receiver) = sender's Write quorum + link."""
    return timeouts.accept_send_time(sender) + float(timeouts.latency[sender, receiver])


def round_duration_scalar(timeouts: PbftTimeouts) -> float:
    """``d_rnd`` by per-replica dict scans (no numpy)."""
    accept_send = {}
    for replica in range(timeouts.n):
        write_arrivals = {
            writer: write_arrival(timeouts, writer, replica)
            for writer in range(timeouts.n)
        }
        accept_send[replica] = quorum_formation_time(
            write_arrivals, timeouts.weights, timeouts.quorum_weight
        )
    arrivals = {
        sender: accept_send[sender]
        + float(timeouts.latency[sender, timeouts.leader])
        for sender in range(timeouts.n)
    }
    return quorum_formation_time(arrivals, timeouts.weights, timeouts.quorum_weight)


def weight_config_round_duration_scalar(latency, configuration) -> float:
    return round_duration_scalar(
        PbftTimeouts(
            latency,
            leader=configuration.leader,
            weights=configuration.weights(),
            quorum_weight=configuration.quorum_weight,
        )
    )


def expected_messages_per_round(
    timeouts: PbftTimeouts, receiver: int
) -> List[ExpectedMessage]:
    """All messages ``receiver`` expects in a round, one scalar accessor
    call per ``d_m``."""
    expected = []
    if receiver != timeouts.leader:
        expected.append(
            ExpectedMessage(
                sender=timeouts.leader,
                msg_type="propose",
                phase=PHASE_PROPOSE,
                d_m=timeouts.propose_arrival(receiver),
            )
        )
    for sender in range(timeouts.n):
        if sender == receiver:
            continue
        if sender != timeouts.leader:
            expected.append(
                ExpectedMessage(
                    sender=sender,
                    msg_type="write",
                    phase=PHASE_WRITE,
                    d_m=write_arrival(timeouts, sender, receiver),
                )
            )
        expected.append(
            ExpectedMessage(
                sender=sender,
                msg_type="accept",
                phase=PHASE_ACCEPT,
                d_m=accept_arrival(timeouts, sender, receiver),
            )
        )
    return expected


class _RoundState:
    def __init__(self, timestamp: float, expected: List[ExpectedMessage]):
        self.proposal_timestamp = timestamp
        self.expected: Dict[Tuple[int, str], ExpectedMessage] = {
            (m.sender, m.msg_type): m for m in expected
        }
        self.received: Set[Tuple[int, str]] = set()
        self.checked = False
        self.suspected_phase: float = math.inf


def plan_from_expected(expected: Sequence[ExpectedMessage], delta: float) -> RoundPlan:
    """Compile a list of :class:`ExpectedMessage` into a :class:`RoundPlan`."""
    kinds = list(dict.fromkeys(m.msg_type for m in expected))
    width = max((m.sender for m in expected), default=-1) + 1
    d_m: List[Optional[float]] = [None] * (len(kinds) * width)
    phases = [0] * len(d_m)
    for message in expected:
        slot = kinds.index(message.msg_type) * width + message.sender
        d_m[slot] = message.d_m
        phases[slot] = message.phase
    return RoundPlan(kinds, width, d_m, phases, delta)


class PerRoundSuspicionSensor(SuspicionSensor):
    """Condition (b) over per-round ``ExpectedMessage`` dicts: every
    deadline is ``timestamp + delta * d_m``, computed on arrival."""

    def begin_round(self, round_id, leader, proposal_timestamp, d_rnd, expected, view=0):
        super().begin_round(
            round_id, leader, proposal_timestamp, d_rnd,
            plan_from_expected([], self.delta), view,
        )
        self._rounds[round_id] = _RoundState(
            proposal_timestamp + self.clock_skew, expected
        )

    def on_message(self, round_id, sender, msg_type, now) -> None:
        state = self._rounds.get(round_id)
        if state is None:
            return
        expected = state.expected.get((sender, msg_type))
        if expected is not None and expected.phase <= state.suspected_phase:
            deadline = state.proposal_timestamp + self.delta * expected.d_m
            if now > deadline:
                if self._raise_slow(
                    suspect=sender, round_id=round_id, msg_type=msg_type,
                    phase=expected.phase, view=0,
                ) is not None:
                    state.suspected_phase = min(state.suspected_phase, expected.phase)
        state.received.add((sender, msg_type))

    def round_horizon(self, round_id) -> Optional[float]:
        state = self._rounds.get(round_id)
        if state is None or not state.expected:
            return None
        latest = max(m.d_m for m in state.expected.values())
        return state.proposal_timestamp + self.delta * latest

    def check_round(self, round_id, now, view=0) -> List[SuspicionRecord]:
        state = self._rounds.get(round_id)
        if state is None or state.checked:
            return []
        raised = []
        missing = sorted(
            (expected.phase, sender, msg_type, expected)
            for (sender, msg_type), expected in state.expected.items()
            if (sender, msg_type) not in state.received
        )
        for phase, sender, msg_type, expected in missing:
            if phase > state.suspected_phase:
                break
            deadline = state.proposal_timestamp + self.delta * expected.d_m
            if now >= deadline:
                record = self._raise_slow(
                    suspect=sender, round_id=round_id, msg_type=msg_type,
                    phase=phase, view=view,
                )
                if record is not None:
                    raised.append(record)
                    state.suspected_phase = min(state.suspected_phase, phase)
        state.checked = True
        return raised


class AccumulatingPbftReplica(PbftReplica):
    """PBFT with the Prepare / Commit handlers it had before the door:
    every vote that is not a sender's second accumulates, whatever its
    phase, and calls ``_maybe_send_commit`` / ``_maybe_execute``, which
    re-check every guard; no accumulator is ever deleted.  Execution
    itself is the production body."""

    def handle_Prepare(self, src: int, message) -> None:  # noqa: N802
        if not self.running:
            return
        seq = message.seq
        senders = self.prepare_senders.get(seq, 0)
        bit = 1 << src
        if senders & bit:
            return
        self.prepare_senders[seq] = senders | bit
        sensor = self._sensor
        if sensor is not None:
            sensor.on_message(seq, src, "write", self.sim.now)
        weights = self._weights
        self.prepare_weight[seq] = self.prepare_weight.get(seq, 0.0) + (
            1.0 if weights is None else weights[src]
        )
        self._maybe_send_commit(seq)

    def _maybe_send_commit(self, seq: int) -> None:
        if seq in self.sent_commit or seq not in self.preprepares:
            return
        if self.prepare_weight.get(seq, 0.0) < self._quorum_weight:
            return
        self.sent_commit.add(seq)
        preprepare = self.preprepares[seq]
        self.broadcast(
            Commit(
                view=preprepare.view,
                seq=seq,
                block_hash=preprepare.block.hash,
                sender=self.id,
            )
        )

    def handle_Commit(self, src: int, message) -> None:  # noqa: N802
        if not self.running:
            return
        seq = message.seq
        senders = self.commit_senders.get(seq, 0)
        bit = 1 << src
        if senders & bit:
            return
        self.commit_senders[seq] = senders | bit
        sensor = self._sensor
        if sensor is not None:
            sensor.on_message(seq, src, "accept", self.sim.now)
        weights = self._weights
        self.commit_weight[seq] = self.commit_weight.get(seq, 0.0) + (
            1.0 if weights is None else weights[src]
        )
        self._maybe_execute(seq)

    def _maybe_execute(self, seq: int) -> None:
        if seq in self.executed or seq not in self.preprepares:
            return
        if (
            seq in self.sent_commit
            and self.commit_weight.get(seq, 0.0) >= self._quorum_weight
        ):
            kept = self.commit_senders[seq], self.commit_weight[seq]
            super()._maybe_execute(seq)
            self.commit_senders[seq], self.commit_weight[seq] = kept


def anneal(
    initial: State,
    score: Callable[[State], float],
    mutate: Callable[[State, random.Random], State],
    rng: random.Random,
    schedule: Optional[AnnealingSchedule] = None,
) -> AnnealingResult[State]:
    """Minimise ``score`` by simulated annealing from ``initial``.

    ``mutate`` must return a *new* state (states are treated as immutable).
    Infeasible states may be signalled with ``float("inf")`` scores; they
    are never accepted.
    """
    schedule = schedule or AnnealingSchedule()
    current = initial
    current_score = score(current)
    best = current
    best_score = current_score
    initial_score = current_score
    temperature = schedule.initial_temperature
    accepted = 0
    converged = False
    iterations_used = 0

    for iteration in range(schedule.iterations):
        iterations_used = iteration + 1
        candidate = mutate(current, rng)
        candidate_score = score(candidate)
        delta = candidate_score - current_score
        if delta <= 0:
            accept = candidate_score != float("inf")
        elif candidate_score == float("inf") or temperature <= 0:
            accept = False
        else:
            accept = rng.random() < math.exp(-delta / temperature)
        if accept:
            current = candidate
            current_score = candidate_score
            accepted += 1
            if current_score < best_score:
                best = current
                best_score = current_score
        temperature *= schedule.cooling
        if temperature < schedule.min_temperature:
            converged = True
            break

    return AnnealingResult(
        best_state=best,
        best_score=best_score,
        initial_score=initial_score,
        iterations_used=iterations_used,
        accepted=accepted,
        converged=converged,
    )


def mutate_tree(
    tree: TreeConfiguration,
    candidates: FrozenSet[int],
    rng: random.Random,
) -> TreeConfiguration:
    """Swap two positions; internal positions only receive candidates."""
    n = tree.n
    internal_count = tree.branch_factor + 1
    position_a = rng.randrange(n)
    position_b = rng.randrange(n)
    if position_b == position_a:
        position_b = (position_a + 1) % n
    low, high = min(position_a, position_b), max(position_a, position_b)
    # If the swap moves a replica INTO an internal position, that replica
    # must be a candidate; otherwise resample the source from candidates
    # occupying non-internal positions.
    if low < internal_count <= high and tree.layout[high] not in candidates:
        candidate_positions = [
            position
            for position in range(internal_count, n)
            if tree.layout[position] in candidates
        ]
        if not candidate_positions:
            return tree
        high = rng.choice(candidate_positions)
    layout = list(tree.layout)
    layout[low], layout[high] = layout[high], layout[low]
    return TreeConfiguration(layout=tuple(layout), branch_factor=tree.branch_factor)


def optitree_search_full(
    latency,
    n: int,
    f: int,
    candidates: FrozenSet[int],
    u: int,
    rng: Optional[random.Random] = None,
    schedule: Optional[AnnealingSchedule] = None,
    k: Optional[int] = None,
    initial: Optional[TreeConfiguration] = None,
):
    """``optitree_search`` by full scoring: same arguments, same draws,
    and -- the engine's contract -- the same result to the bit."""
    rng = rng or random.Random(0)
    votes_needed = k if k is not None else default_k(n, f, u)
    if initial is None:
        initial = random_tree(n, candidates, rng)
        if initial is None:
            return None
    schedule = schedule or AnnealingSchedule(
        iterations=20_000, initial_temperature=0.05, cooling=0.9995
    )

    def score(tree: TreeConfiguration) -> float:
        if not tree.internal_nodes <= candidates:
            return math.inf
        return tree_score(latency, tree, votes_needed)

    def mutate(tree: TreeConfiguration, mutation_rng: random.Random) -> TreeConfiguration:
        return mutate_tree(tree, candidates, mutation_rng)

    return anneal(initial, score, mutate, rng, schedule)


class EveryProposalChecked(IncrementalTreeSearch):
    """:class:`IncrementalTreeSearch` checked on every proposal.

    :class:`ScoreChecked` re-scores accepted states only; here every
    ``delta_score`` -- accepted or not -- must equal
    ``tree_score`` of the tentative layout (``inf`` while an internal
    node is outside ``K``), and after every ``apply`` the cached ``lagg``,
    ``costs`` and score must equal a freshly built engine's.

    ``proposals`` counts ``delta_score`` calls and ``leaf_rescans`` those
    where a swap of two leaves could not be settled by comparison (a tie
    with the cached maximum, or the maximum itself leaving) and rescanned.
    """

    def __init__(self, latency, initial, candidates, k):
        super().__init__(latency, initial, candidates, k)
        self._latency = latency
        self._k = k
        self.proposals = 0
        self.leaf_rescans = 0

    def _same(self, ours, reference, what: str) -> None:
        assert ours == reference, (
            f"{what}: incremental {ours!r} != from scratch {reference!r} after "
            f"proposal {self.proposals} (swap {self._low}, {self._high})"
        )

    def delta_score(self, mutation) -> float:
        self.proposals += 1
        rescans_before = self.rescans
        score = super().delta_score(mutation)
        if self._low >= self.internal_count and self.rescans > rescans_before:
            self.leaf_rescans += 1
        tree = self.snapshot()  # the swap is made tentatively, in place
        feasible = tree.internal_nodes <= self.candidates
        reference = tree_score(self._latency, tree, self._k) if feasible else math.inf
        self._same(score, reference, "delta_score")
        return score

    def apply(self, mutation) -> None:
        super().apply(mutation)
        fresh = IncrementalTreeSearch(
            self._latency, self.snapshot(), self.candidates, self._k
        )
        self._same(self.lagg, fresh.lagg, "lagg")
        self._same(self.costs, fresh.costs, "costs")
        self._same(self.initial_score(), fresh.initial_score(), "held score")


class ScoreChecked:
    """``engine`` with its held score re-derived after every ``apply``.

    The score the last ``delta_score`` promised must equal
    ``full_score`` of the state ``apply`` installed (two infinities are
    equal); a drifting delta raises on the first accepted step it moves.
    Every other hook is the wrapped engine's, so the annealer draws the
    same randomness and takes the same steps as on the bare engine.
    """

    def __init__(self, engine, full_score: Callable[[Any], float]):
        self.engine = engine
        self.full_score = full_score
        self.applied = 0
        self._promised = math.nan

    def __getattr__(self, name):
        return getattr(self.engine, name)

    def delta_score(self, mutation) -> float:
        self._promised = self.engine.delta_score(mutation)
        return self._promised

    def apply(self, mutation) -> None:
        self.engine.apply(mutation)
        self.applied += 1
        promised = self._promised
        reference = self.full_score(self.engine.snapshot())
        if reference != promised and not (
            math.isinf(reference) and math.isinf(promised)
        ):
            raise AssertionError(
                f"incremental score {promised!r} diverged from full score "
                f"{reference!r} at accepted step {self.applied}"
            )


def _min_phases(items) -> Dict[int, int]:
    """Each round's earliest suspicion phase (the §4.2.3 causal filter)."""
    min_phase: Dict[int, int] = {}
    for item in items:
        current = min_phase.get(item.round_id)
        if current is None or item.phase < current:
            min_phase[item.round_id] = item.phase
    return min_phase


def rebuilt_state(monitor) -> Tuple[Set[int], Graph, FrozenSet[int], int]:
    """(C, G, K, u) of a suspicion monitor derived from scratch.

    Reads the monitor's raw item deque and ``F`` and nothing it
    maintains incrementally, and writes nothing: the min-phase causal
    filter, the crash set, the graph and the candidate rule (the MIS, or
    §6.4's ``E_d``/``T`` for :class:`TreeSuspicionMonitor`) are all
    recomputed here.
    """
    min_phase = _min_phases(monitor._items)
    effective = [
        item for item in monitor._items if item.phase == min_phase[item.round_id]
    ]
    faulty = monitor._faulty_set()
    crashed = {
        item.suspect for item in effective
        if item.one_way and item.suspect not in faulty
    }
    vertices = [v for v in range(monitor.n) if v not in faulty and v not in crashed]
    vertex_set = set(vertices)
    graph = Graph(vertices=vertices)
    order = []
    for item in effective:
        if item.one_way:
            continue
        order.append(ordered_edge(item.reporter, item.suspect))
        if item.reporter in vertex_set and item.suspect in vertex_set:
            graph.add_edge(item.reporter, item.suspect)
    if isinstance(monitor, TreeSuspicionMonitor):
        candidates, u, _, _ = tree_candidates(graph, order)
    else:
        candidates = monitor._candidate_set(graph)
        u = max(0, len(graph) - len(candidates))
    return crashed, graph, candidates, u


class RebuildChecked:
    """Mixin for :class:`~repro.core.suspicion.SuspicionMonitor` and
    :class:`TreeSuspicionMonitor`: after every ``on_entry``,
    ``advance_view`` and change of ``F``, the incremental registries and
    derived state must equal a from-scratch derivation.

    Use it first in the bases (``class Checked(RebuildChecked,
    SuspicionMonitor)``) so its hooks wrap the monitor's.  Raises
    ``AssertionError`` on the first divergence.
    """

    def on_entry(self, entry) -> None:
        super().on_entry(entry)
        self.check_against_rebuild()

    def advance_view(self, view: int) -> None:
        super().advance_view(view)
        self.check_against_rebuild()

    def _on_faulty_changed(self) -> None:
        super()._on_faulty_changed()
        self.check_against_rebuild()

    def check_against_rebuild(self) -> None:
        min_phase = _min_phases(self._items)
        if min_phase != self._round_min_phase:
            raise AssertionError(
                "incremental min-phase diverged: "
                f"{self._round_min_phase} != {min_phase}"
            )
        for item in self._items:
            pending = self._pair_pending.get(
                ordered_edge(item.reporter, item.suspect), ()
            )
            awaiting = any(other is item for other in pending)
            if item.reciprocated == awaiting and not item.one_way:
                raise AssertionError(
                    f"reciprocation index diverged for item seq={item.seq}: "
                    f"reciprocated={item.reciprocated}, pending={awaiting}"
                )
        crashed, graph, candidates, u = rebuilt_state(self)
        if (
            crashed != self.crashed
            or graph.vertices() != self.graph.vertices()
            or graph.edges() != self.graph.edges()
            or candidates != self.candidates
            or u != self.u
        ):
            raise AssertionError(
                "incremental suspicion state diverged from rebuild: "
                f"C {sorted(self.crashed)} vs {sorted(crashed)}, "
                f"E {self.graph.edges()} vs {graph.edges()}, "
                f"K {sorted(self.candidates)} vs {sorted(candidates)}, "
                f"u {self.u} vs {u}"
            )


def _bron_kerbosch_max_clique(adj: Dict[int, Set[int]]) -> Tuple[int, ...]:
    """Maximum clique via Bron-Kerbosch with pivoting (reference).

    Deterministic: candidate iteration is in sorted order and ties between
    equal-sized cliques resolve to the lexicographically smallest tuple.
    """
    best: List[Tuple[int, ...]] = [()]

    def consider(clique: Tuple[int, ...]) -> None:
        current = best[0]
        if len(clique) > len(current) or (
            len(clique) == len(current) and clique < current
        ):
            best[0] = clique

    def expand(r: Tuple[int, ...], p: Set[int], x: Set[int]) -> None:
        if not p and not x:
            consider(tuple(sorted(r)))
            return
        # Prune: even taking all of P cannot beat the current best.
        if len(r) + len(p) < len(best[0]):
            return
        # Pivot on the vertex of P ∪ X with the most neighbours in P.
        pivot = max(sorted(p | x), key=lambda v: len(adj[v] & p))
        for v in sorted(p - adj[pivot]):
            expand(r + (v,), p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand((), set(adj), set())
    return best[0]


def is_independent_set(graph: Graph, vertices: Iterable[int]) -> bool:
    """True iff no two of ``vertices`` are adjacent in ``graph``."""
    chosen = list(vertices)
    for i, a in enumerate(chosen):
        for b in chosen[i + 1 :]:
            if graph.has_edge(a, b):
                return False
    return True


def maximum_independent_set_reference(graph: Graph) -> FrozenSet[int]:
    """The pre-bitset exact solver; pinned equal to the production one."""
    vertices = graph.vertices()
    if not vertices:
        return frozenset()
    complement_adj: Dict[int, Set[int]] = {v: set() for v in vertices}
    vertex_set = set(vertices)
    for v in vertices:
        complement_adj[v] = vertex_set - set(graph.neighbors(v)) - {v}
    return frozenset(_bron_kerbosch_max_clique(complement_adj))


def greedy_independent_set_reference(graph: Graph) -> FrozenSet[int]:
    """The pre-bitset greedy heuristic; pinned equal to the production one."""
    remaining = {v: set(graph.neighbors(v)) for v in graph.vertices()}
    chosen: Set[int] = set()
    while remaining:
        v = min(remaining, key=lambda u: (len(remaining[u]), u))
        chosen.add(v)
        dropped = remaining.pop(v)
        for u in dropped:
            if u in remaining:
                for w in remaining[u]:
                    if w in remaining:
                        remaining[w].discard(u)
                del remaining[u]
    return frozenset(chosen)


class LatencyDivergence(AssertionError):
    """The latency model disagreed with its reference on a pair."""


#: Largest n the pair-by-pair cross-check accepts.
CHECK_MAX_N = 512

#: Sampled pairs per check (on top of a handful of full rows).
CHECK_SAMPLES = 4096


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in kilometres between two (lat, lon) points."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


def pair_rtt_ms(a: City, b: City) -> float:
    """Scalar reference RTT (ms) for one pair of cities: the formula the
    vectorized construction (``latency_model._pairwise_rtt_ms``) must
    reproduce bit for bit."""
    distance = haversine_km(a.lat, a.lon, b.lat, b.lon)
    return LOCAL_RTT_MS + distance * MS_PER_KM


def _reference_one_way(cities: Sequence[City], a: int, b: int) -> float:
    if a == b:
        return 0.0
    lo, hi = min(a, b), max(a, b)
    return (pair_rtt_ms(cities[lo], cities[hi]) / 1000.0) / 2.0


def verify_against_dense(
    model: LatencyModel,
    rng: Optional[random.Random] = None,
    samples: int = CHECK_SAMPLES,
) -> int:
    """Cross-check the model's region table against :func:`pair_rtt_ms`.

    Evaluates the scalar formula for every compared pair of the model's
    cities and asserts **bit equality** on a few full rows, through the
    provider's row path, plus ``samples`` uniformly drawn pairs through
    the scalar path.  Returns the number of pairs
    compared; raises :class:`LatencyDivergence` naming the first
    differing pair.
    """
    n = len(model.cities)
    if n > CHECK_MAX_N:
        raise ValueError(
            f"dense check caps at n={CHECK_MAX_N} (got {n}): the "
            "reference is one scalar formula call per pair"
        )
    rng = rng or random.Random(0)
    cities = model.cities
    provider = DelayProvider(model)
    compared = 0
    # A handful of full rows: every dst for a few srcs, via the row path.
    row_srcs = sorted({0, n - 1, *(rng.randrange(n) for _ in range(6))})
    for src in row_srcs:
        row = provider.row(src)
        for dst in range(n):
            expect = _reference_one_way(cities, src, dst)
            if row[dst] != expect:
                raise LatencyDivergence(
                    f"row({src})[{dst}] = {row[dst]!r} != formula {expect!r}"
                )
        compared += n
    # Sampled pairs through the scalar path.
    for _ in range(samples):
        a = rng.randrange(n)
        b = rng.randrange(n)
        got = model.one_way(a, b)
        expect = _reference_one_way(cities, a, b)
        if got != expect:
            raise LatencyDivergence(
                f"one_way({a}, {b}) = {got!r} != formula {expect!r}"
            )
        compared += 1
    return compared


def heap_only(network):
    """Switch ``network``'s wide-row store off and return it.

    Every pending delivery is then one heap entry and ``Simulator.run``
    alone decides the order -- the definition the store's windows and
    merges are held to.  No ``src/`` hook: the threshold is the constant
    the store tests already lower, set on the instance.
    """
    network.block_fanout = float("inf")
    return network


class DeliveryOrderRecorder:
    """Hash of every handler call a network makes, in call order.

    ``state_trace_hash`` compares where two runs *ended*; this compares
    how they got there: two runs agree on :attr:`digest` iff they
    delivered the same messages to the same nodes at the same simulated
    instants in the same global order.  Install it on an idle network,
    before or after nodes register (later registrations are wrapped
    too).  It taps the two places a network finds a handler -- the
    inbox (``register``) and the terminal-handler map
    (``register_dispatch``) -- so it sees a row exactly once whichever
    of them delivers it, at the ``sim.now`` its handler reads.
    """

    def __init__(self, network, keep: bool = False, tap=None):
        self.sim = network.sim
        self.count = 0
        #: The rows themselves (for diffing a mismatch) when ``keep``.
        self.rows = [] if keep else None
        #: ``tap(dst, src, message)`` sees each message as it is recorded.
        self._tap = tap
        self._hash = hashlib.sha256()
        for name, wrap in (
            ("register", _recording_inbox),
            ("register_dispatch", _RecordingRoute),
        ):
            setattr(network, name, self._wrapping(getattr(network, name), wrap))
        for node, handler in list(network._handlers.items()):
            network.register(node, handler)
        for node, dispatch in list(network._routes.items()):
            network.register_dispatch(node, dispatch)

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()

    def _record(self, now: float, dst: int, src: int, cls: type, message) -> None:
        src = int(src)
        row = (now, dst, src, cls.__name__)
        self.count += 1
        self._hash.update(repr(row).encode())
        if self.rows is not None:
            self.rows.append(row)
        if self._tap is not None:
            self._tap(dst, src, message)

    def _wrapping(self, register, wrap):
        return lambda node, target: register(node, wrap(self, node, target))


def _recording_inbox(recorder, dst, handler):
    def inbox(src, message):
        recorder._record(recorder.sim.now, dst, src, message.__class__, message)
        handler(src, message)

    return inbox


class _RecordingRoute:
    """Stands in for a node's live class -> handler map."""

    def __init__(self, recorder, dst, route):
        self.recorder = recorder
        self.dst = dst
        self.route = route

    def get(self, cls, default=None):
        handler = self.route.get(cls, default)
        if handler is default:
            return default  # unresolved: the inbox will record the row
        recorder = self.recorder
        dst = self.dst

        def terminal(src, message):
            recorder._record(recorder.sim.now, dst, src, cls, message)
            if handler is not None:
                handler(src, message)

        return terminal


class BlockObserver:
    """Every block each node was handed (Proposal or Forward), by height.

    The chained engines keep a height's block only until it commits, so
    a test that wants the run's history -- who proposed, which block a
    replica committed at a height -- observes deliveries instead of
    reading ``block_at_height`` after the fact.  Install on an idle
    network, like the :class:`DeliveryOrderRecorder` it taps.
    """

    def __init__(self, network):
        #: (node, height) -> the block last delivered to it at that height.
        self.blocks: Dict[Tuple[int, int], object] = {}
        self._recorder = DeliveryOrderRecorder(network, tap=self._see)

    def _see(self, dst: int, src: int, message) -> None:
        block = getattr(message, "block", None)
        if block is not None:
            self.blocks[(dst, block.height)] = block

    @property
    def proposers(self) -> Set[int]:
        return {block.proposer for block in self.blocks.values()}


#: Every map a replica keys by height (chained engines) or sequence
#: number (PBFT); each engine holds its own subset.
PER_HEIGHT_MAPS: Tuple[str, ...] = (
    "preprepares", "executed", "prepare_weight", "commit_weight",
    "block_at_height", "votes", "collections",
    "root_votes", "qc_heights",
)


def per_height_entries(cluster, exclude: Sequence[str] = ()) -> int:
    """Summed ``len()`` of every :data:`PER_HEIGHT_MAPS` member the
    cluster's replicas have, minus the ``exclude``d names."""
    total = 0
    for replica in cluster.replicas:
        for attr in PER_HEIGHT_MAPS:
            state = None if attr in exclude else getattr(replica, attr, None)
            if state is not None:
                total += len(state)
    return total
