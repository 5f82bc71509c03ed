"""Suspicion sensor and monitor (§4.2.3, Appendix C).

The SuspicionSensor detects timing and omission faults relative to the
latencies replicas *reported* (the latency matrix ``L``):

========  ============================================================
(a)       consecutive proposal timestamps more than ``δ·d_rnd`` apart
          → ⟨Slow, A d L⟩ against the leader
(b)       message ``m`` from B missing ``δ·d_m`` after round start
          → ⟨Slow, A d B⟩
(c)       a suspicion ⟨_, B d A⟩ against the local replica
          → reciprocate ⟨False, A d B⟩
========  ============================================================

The SuspicionMonitor consumes committed suspicions, filters causally
related ones, distinguishes crash suspicions (never reciprocated within
``f+1`` views → crashed set ``C``) from mutual suspicions (edges of the
suspicion graph ``G``), and produces:

* the candidate set ``K`` -- a maximum independent set of ``G`` plus every
  unsuspected replica, always of size ≥ ``n − f`` (Lemma 1);
* the estimate ``u = |V| − |K|`` of misbehaving replicas.

Aging: after ``w`` stable views old suspicions are evicted oldest-first;
eviction also triggers when ``G`` no longer contains an independent set of
size ``n − f``.

OptiTree's alternative candidate rule (``E_d``/``T``, §6.4) subclasses
this monitor in :mod:`repro.tree.candidates`.  Both maintain their state
incrementally; the from-scratch derivation it must equal after every
mutation is a test oracle (``tests/oracles.py::RebuildChecked``), not a
mode of the monitor.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.log import AppendOnlyLog, LogEntry
from repro.core.misbehavior import MisbehaviorMonitor
from repro.core.monitor import Monitor
from repro.core.records import SuspicionKind, SuspicionRecord
from repro.core.roundplan import RoundPlan
from repro.core.sensor import Sensor, SensorApp
from repro.optimize.graphs import Edge, Graph, ordered_edge
from repro.optimize.maxindset import (
    greedy_independent_set_masks,
    maximum_independent_set_masks,
)


# ----------------------------------------------------------------------
# Sensor
# ----------------------------------------------------------------------
class _Round:
    """One tracked round: its plan, timestamp and received-slot bitmask."""

    __slots__ = ("plan", "timestamp", "received", "checked", "suspected_phase")

    def __init__(self, plan: RoundPlan, timestamp: float):
        self.plan = plan
        self.timestamp = timestamp
        self.received = 0
        self.checked = False
        #: Lowest phase already suspected this round; one late message
        #: delays every later phase, so later-phase suspicions are causally
        #: implied and not raised (the monitor filters them anyway, §4.2.3).
        self.suspected_phase: float = math.inf


class SuspicionSensor(Sensor):
    """Raises suspicions per conditions (a)-(c) of §4.2.3.

    The protocol adapter drives the sensor:

    * :meth:`begin_round` when a proposal (with the leader's timestamp)
      arrives, together with the round's compiled :class:`RoundPlan` and
      ``d_rnd``;
    * :meth:`on_message` when an expected message arrives;
    * :meth:`check_round` once the local clock passes the round's horizon
      (simulation engines schedule this; analytical tests call it with an
      explicit ``now``);
    * :meth:`on_suspicion_logged` for every committed suspicion, to
      reciprocate per condition (c).

    The sensor requires synchronised clocks (§4.2.3); in the simulator all
    replicas share virtual time, and clock skew can be injected through
    the ``clock_skew`` parameter for robustness experiments.
    """

    name = "suspicion-sensor"

    def __init__(
        self,
        replica_id: int,
        app: SensorApp,
        delta: float = 1.0,
        clock_skew: float = 0.0,
    ):
        super().__init__(replica_id, app)
        self.delta = delta
        self.clock_skew = clock_skew
        self._rounds: Dict[int, _Round] = {}
        self._last_proposal: Optional[Tuple[int, float, int]] = None  # (round, ts, leader)
        self._last_d_rnd: float = math.inf
        self._reciprocated: Set[Tuple[int, int]] = set()
        #: (suspect, round) pairs already reported slow: one ⟨Slow⟩ per
        #: suspect per round keeps reports rare (§7.8) while still giving
        #: the monitor one fresh edge per round of continued misbehavior.
        self._slow_reported: Set[Tuple[int, int]] = set()
        self.suspicions_raised = 0

    # -- protocol driving ------------------------------------------------
    def begin_round(
        self,
        round_id: int,
        leader: int,
        proposal_timestamp: float,
        d_rnd: float,
        plan: RoundPlan,
        view: int = 0,
    ) -> None:
        """Start tracking a round; checks condition (a) against the last one.

        ``plan`` must be compiled for this sensor's ``delta``.
        """
        timestamp = proposal_timestamp + self.clock_skew
        if self._last_proposal is not None:
            last_round, last_ts, last_leader = self._last_proposal
            same_leader_next = leader == last_leader and round_id == last_round + 1
            gap = timestamp - last_ts
            if same_leader_next and gap > self.delta * self._last_d_rnd:
                self._raise_slow(
                    suspect=leader,
                    round_id=round_id,
                    msg_type="proposal-timestamp",
                    phase=0,
                    view=view,
                )
        self._last_proposal = (round_id, timestamp, leader)
        self._last_d_rnd = d_rnd
        self._rounds[round_id] = _Round(plan, timestamp)

    def on_message(self, round_id: int, sender: int, msg_type: str, now: float) -> None:
        """Record arrival of an expected message (condition (b) bookkeeping).

        A message arriving *after* its ``δ·d_m`` deadline is still a
        condition-(b) violation -- the suspicion is raised immediately
        rather than waiting for the round check.
        """
        state = self._rounds.get(round_id)
        if state is None:
            return
        plan = state.plan
        base = plan.kind_base.get(msg_type)
        if base is None or not 0 <= sender < plan.width:
            return
        slot = base + sender
        offset = plan.offsets[slot]
        if offset is None:
            return
        if now > state.timestamp + offset:
            phase = plan.phases[slot]
            if phase <= state.suspected_phase and self._raise_slow(
                suspect=sender,
                round_id=round_id,
                msg_type=msg_type,
                phase=phase,
                view=0,
            ) is not None:
                state.suspected_phase = min(state.suspected_phase, phase)
        state.received |= 1 << slot

    def round_horizon(self, round_id: int) -> Optional[float]:
        """Absolute time by which every expected message should have arrived."""
        state = self._rounds.get(round_id)
        if state is None or state.plan.horizon_offset is None:
            return None
        return state.timestamp + state.plan.horizon_offset

    def check_round(self, round_id: int, now: float, view: int = 0) -> List[SuspicionRecord]:
        """Raise ⟨Slow⟩ for every expected message still missing at ``now``.

        Idempotent per round; returns the suspicions raised (already
        submitted through the sensor app).
        """
        state = self._rounds.get(round_id)
        if state is None or state.checked:
            return []
        state.checked = True
        plan = state.plan
        missing = plan.expected_mask & ~state.received
        raised: List[SuspicionRecord] = []
        if not missing:
            return raised
        for slot in plan.check_order:
            if not (missing >> slot) & 1:
                continue
            phase = plan.phases[slot]
            if phase > state.suspected_phase:
                break  # causally implied by the earlier-phase suspicion
            if now >= state.timestamp + plan.offsets[slot]:
                sender, msg_type = plan.describe(slot)
                record = self._raise_slow(
                    suspect=sender,
                    round_id=round_id,
                    msg_type=msg_type,
                    phase=phase,
                    view=view,
                )
                if record is not None:
                    raised.append(record)
                    state.suspected_phase = min(state.suspected_phase, phase)
        return raised

    def forget_round(self, round_id: int) -> None:
        """Drop bookkeeping for an old round."""
        self._rounds.pop(round_id, None)

    def forget_through(self, round_id: int) -> List[int]:
        """Engine compaction: drop every *spent* round at or below
        ``round_id`` and the one-⟨Slow⟩-per-suspect keys of rounds no
        longer tracked; returns the rounds that old which had to stay.

        A round is spent once every expected message has arrived: its
        check would find nothing missing and no later arrival can be
        late, so dropping it cannot change a suspicion.  A round still
        missing a message stays until :meth:`forget_round` retires it.
        The caller must not begin a round that old again.
        """
        rounds = self._rounds
        live = [
            tracked for tracked, state in rounds.items()
            if tracked <= round_id and state.plan.expected_mask & ~state.received
        ]
        for spent in [r for r in rounds if r <= round_id and r not in live]:
            del rounds[spent]
        self._slow_reported = {
            key for key in self._slow_reported
            if key[1] > round_id or key[1] in rounds
        }
        return live

    # -- condition (c) ----------------------------------------------------
    def on_suspicion_logged(self, record: SuspicionRecord, view: int = 0) -> None:
        """Reciprocate a suspicion raised against the local replica."""
        if record.suspect != self.replica_id:
            return
        if record.reporter == self.replica_id:
            return
        key = (record.reporter, record.round_id)
        if key in self._reciprocated:
            return
        self._reciprocated.add(key)
        self._raise(
            suspect=record.reporter,
            kind=SuspicionKind.FALSE,
            round_id=record.round_id,
            msg_type="reciprocation",
            phase=record.phase,
            view=view,
        )

    # -- helpers ----------------------------------------------------------
    def _raise_slow(
        self,
        suspect: int,
        round_id: int,
        msg_type: str,
        phase: int,
        view: int,
    ) -> Optional[SuspicionRecord]:
        """Raise ⟨Slow⟩ at most once per (suspect, round)."""
        if (suspect, round_id) in self._slow_reported or suspect == self.replica_id:
            return None
        self._slow_reported.add((suspect, round_id))
        return self._raise(
            suspect=suspect,
            kind=SuspicionKind.SLOW,
            round_id=round_id,
            msg_type=msg_type,
            phase=phase,
            view=view,
        )

    def _raise(
        self,
        suspect: int,
        kind: SuspicionKind,
        round_id: int,
        msg_type: str,
        phase: int,
        view: int,
    ) -> SuspicionRecord:
        record = SuspicionRecord(
            reporter=self.replica_id,
            suspect=suspect,
            kind=kind,
            round_id=round_id,
            msg_type=msg_type,
            phase=phase,
            view=view,
        )
        self.suspicions_raised += 1
        self.record(record)
        return record


# ----------------------------------------------------------------------
# Monitor
# ----------------------------------------------------------------------
@dataclass
class _SuspicionItem:
    """An accepted (unfiltered) suspicion and its lifecycle state."""

    seq: int
    reporter: int
    suspect: int
    kind: SuspicionKind
    round_id: int
    phase: int
    view: int
    reciprocated: bool = False
    deadline_view: int = 0
    one_way: bool = False  # aged into a crash suspicion


class SuspicionMonitor(Monitor):
    """Builds C, G, K and u from committed suspicions (§4.2.3).

    The derived state is maintained *incrementally*: per-round phase
    multisets give the causal filter's min-phase in O(1) per append, and
    the effective items' contributions live in two counters (two-way
    edge multiset, one-way crash multiset) that mutate on append,
    eviction and one-way aging.  The graph is only rebuilt -- and the
    MIS only re-solved -- when those counters actually changed (dirty
    flag + structural fingerprint).

    Parameters
    ----------
    n, f:
        System size and fault threshold.
    misbehavior:
        The local MisbehaviorMonitor providing ``F``; vertices in ``F``
        are excluded from the graph (and the candidate set).
    stability_window:
        ``w``: views without new suspicions before aging starts.
    exact_mis_threshold:
        Largest graph solved with exact Bron-Kerbosch; beyond it the
        greedy heuristic is used (the paper likewise uses a heuristic
        variant, §7.2).
    """

    name = "suspicion-monitor"
    record_types = (SuspicionRecord,)

    def __init__(
        self,
        replica_id: int,
        log: AppendOnlyLog,
        n: int,
        f: int,
        misbehavior: Optional[MisbehaviorMonitor] = None,
        stability_window: int = 10,
        exact_mis_threshold: int = 25,
    ):
        self.n = n
        self.f = f
        self.misbehavior = misbehavior
        self.stability_window = stability_window
        self.exact_mis_threshold = exact_mis_threshold
        self._items: Deque[_SuspicionItem] = deque()
        self.current_view = 0
        self._last_suspicion_view = 0
        self.filtered_count = 0
        # Rounds in which the *leader* raised a suspicion (suppresses
        # proposal-timestamp suspicions for round+1, §4.2.3).
        self._leader_suspected_round: Set[int] = set()
        self._round_leaders: Dict[int, int] = {}
        # Incremental registries (invariants in docs/ARCHITECTURE.md):
        # per-round phase multiset + its min (the causal filter), the
        # per-round item lists (for promote/demote on min changes), and
        # the effective items' contributions -- a (reporter, suspect)
        # edge multiset for two-way items, a per-suspect multiset for
        # one-way (crash) items.  Membership filtering against F and C
        # happens at graph-build time, not here.
        self._round_phase_counts: Dict[int, Dict[int, int]] = {}
        self._round_min_phase: Dict[int, int] = {}
        self._round_items: Dict[int, List[_SuspicionItem]] = {}
        # Items still awaiting reciprocation, grouped by unordered
        # (reporter, suspect) pair and drained by the pair's next ⟨False⟩
        # record -- amortised O(1) per record, where rescanning the
        # pair's whole history is quadratic under smear/churn storms and
        # under any run whose δ sits inside the jitter band.
        self._pair_pending: Dict[Edge, List[_SuspicionItem]] = {}
        self._edge_counts: Dict[Edge, int] = {}
        self._oneway_counts: Dict[int, int] = {}
        self._dirty = False
        self._derive_key: Optional[tuple] = None
        self._derive_cache: Optional[Tuple[FrozenSet[int], int]] = None
        # Derived state, refreshed whenever the registries change.
        self.crashed: Set[int] = set()
        self.graph = Graph(vertices=range(n))
        self.candidates: FrozenSet[int] = frozenset(range(n))
        self.u = 0
        super().__init__(replica_id, log)
        # A new proof-of-misbehavior changes F and therefore V = Π\F\C.
        if misbehavior is not None:
            misbehavior.add_listener(self._on_faulty_changed)

    # ------------------------------------------------------------------
    # Log consumption
    # ------------------------------------------------------------------
    def note_round_leader(self, round_id: int, leader: int) -> None:
        """Tell the monitor who led a round (for leader-suspicion filtering)."""
        self._round_leaders[round_id] = leader

    def forget_rounds_through(self, round_id: int, keep: List[int]) -> None:
        """Engine compaction: drop the leader bookkeeping of rounds at or
        below ``round_id``, except those in ``keep`` (rounds the local
        sensor still tracks).  A suspicion that old is then judged like
        one for a round whose leader was never noted, which differs only
        for a proposal-phase suspicion against a non-leader -- something
        no sensor raises."""
        self._round_leaders = {
            r: leader
            for r, leader in self._round_leaders.items()
            if r > round_id or r in keep
        }
        self._leader_suspected_round = {
            r for r in self._leader_suspected_round if r > round_id or r in keep
        }

    def on_entry(self, entry: LogEntry) -> None:
        record: SuspicionRecord = entry.record
        if record.reporter == record.suspect:
            return
        if not (0 <= record.reporter < self.n and 0 <= record.suspect < self.n):
            return
        if record.kind == SuspicionKind.FALSE:
            self._apply_reciprocation(record)
            # A reciprocation also proves two-way-ness; it does not create
            # a new edge by itself if none exists (nothing to reciprocate),
            # and it cannot change C, G, K or u -- no refresh needed.
            return
        if self._is_filtered(record):
            self.filtered_count += 1
            return
        self._last_suspicion_view = max(self._last_suspicion_view, record.view, self.current_view)
        item = _SuspicionItem(
            seq=entry.seq,
            reporter=record.reporter,
            suspect=record.suspect,
            kind=record.kind,
            round_id=record.round_id,
            phase=record.phase,
            view=record.view,
            deadline_view=max(record.view, self.current_view) + self.f + 1,
        )
        self._items.append(item)
        self._pair_pending.setdefault(
            ordered_edge(item.reporter, item.suspect), []
        ).append(item)
        self._register_item(item)
        self._note_phase(record)
        if self._dirty:
            self._refresh()

    def _is_filtered(self, record: SuspicionRecord) -> bool:
        """Arrival-time filtering per §4.2.3 plus structural checks.

        * Proposal-phase suspicions (``propose``/``proposal-timestamp``)
          can only legitimately target the round's leader -- a Byzantine
          reporter cannot smuggle early-phase edges against arbitrary
          replicas.
        * If the leader raised a suspicion in round ``i``, suspicions
          against a delayed proposal timestamp in round ``i+1`` are
          filtered (the late round start is causally explained).

        Retention of only the *earliest-phase* suspicions of each round
        happens retroactively in :meth:`_register_item`, so log-order
        races cannot defeat it.
        """
        leader = self._round_leaders.get(record.round_id)
        if (
            record.msg_type in ("propose", "proposal-timestamp")
            and leader is not None
            and record.suspect != leader
        ):
            return True
        if (
            record.msg_type == "proposal-timestamp"
            and (record.round_id - 1) in self._leader_suspected_round
        ):
            return True
        return False

    def _note_phase(self, record: SuspicionRecord) -> None:
        leader = self._round_leaders.get(record.round_id)
        if leader is not None and record.reporter == leader:
            self._leader_suspected_round.add(record.round_id)

    def _apply_reciprocation(self, record: SuspicionRecord) -> None:
        # record is ⟨False, A d B⟩: A (reporter) answers B's (suspect's)
        # earlier suspicion; it confirms the (A, B) edge as two-way.
        # Items already aged one-way stay unreciprocated for good, so the
        # whole pending list can go.
        pair = ordered_edge(record.reporter, record.suspect)
        for item in self._pair_pending.pop(pair, ()):
            if not item.one_way:
                item.reciprocated = True

    # ------------------------------------------------------------------
    # View progression, aging and overflow
    # ------------------------------------------------------------------
    def advance_view(self, view: int) -> None:
        """Advance the view; expires reciprocation deadlines and ages items."""
        if view <= self.current_view:
            return
        self.current_view = view
        for item in self._items:
            if (
                not item.one_way
                and not item.reciprocated
                and item.kind == SuspicionKind.SLOW
                and view >= item.deadline_view
            ):
                # Suspect considered crashed: an effective item's
                # contribution moves from the edge to the one-way counter.
                # A non-effective item flips its flag without touching any
                # counter (derived state cannot change), so no refresh; a
                # later promotion reads the flag and counts it correctly.
                if self._item_effective(item):
                    self._remove_contribution(item)
                    item.one_way = True
                    self._add_contribution(item)
                    self._dirty = True
                else:
                    item.one_way = True
        if (
            self._items
            and view - self._last_suspicion_view >= self.stability_window
        ):
            # Stable system: remove the oldest suspicion per view (aging).
            self._evict_oldest()
            self._last_suspicion_view = view  # pace removals one per view
        if self._dirty:
            self._refresh()

    # ------------------------------------------------------------------
    # Incremental registries
    # ------------------------------------------------------------------
    def _item_effective(self, item: _SuspicionItem) -> bool:
        return item.phase == self._round_min_phase[item.round_id]

    def _add_contribution(self, item: _SuspicionItem) -> None:
        """Count an item that just became effective."""
        if item.one_way:
            counts = self._oneway_counts
            counts[item.suspect] = counts.get(item.suspect, 0) + 1
        else:
            edge = ordered_edge(item.reporter, item.suspect)
            counts = self._edge_counts
            counts[edge] = counts.get(edge, 0) + 1

    def _remove_contribution(self, item: _SuspicionItem) -> None:
        """Retract an effective item's contribution (zeroes are deleted so
        the counters stay exactly the effective multiset)."""
        if item.one_way:
            counts = self._oneway_counts
            key = item.suspect
        else:
            counts = self._edge_counts
            key = ordered_edge(item.reporter, item.suspect)
        remaining = counts[key] - 1
        if remaining:
            counts[key] = remaining
        else:
            del counts[key]

    def _register_item(self, item: _SuspicionItem) -> None:
        """Fold a freshly appended item into the registries.

        A phase *below* the round's current minimum retroactively demotes
        every previously effective item of that round (the §4.2.3 causal
        filter); a phase above it leaves the derived state untouched.
        """
        round_id, phase = item.round_id, item.phase
        counts = self._round_phase_counts.setdefault(round_id, {})
        counts[phase] = counts.get(phase, 0) + 1
        bucket = self._round_items.setdefault(round_id, [])
        bucket.append(item)
        current = self._round_min_phase.get(round_id)
        if current is None:
            self._round_min_phase[round_id] = phase
            self._add_contribution(item)
            self._dirty = True
        elif phase < current:
            for other in bucket:
                if other.phase == current:
                    self._remove_contribution(other)
            self._round_min_phase[round_id] = phase
            self._add_contribution(item)
            self._dirty = True
        elif phase == current:
            self._add_contribution(item)
            self._dirty = True
        # phase > current: causally implied, not effective -- no change.

    def _unregister_item(self, item: _SuspicionItem) -> None:
        """Remove an evicted item from the registries; items promoted by a
        rising min-phase regain their contributions."""
        round_id, phase = item.round_id, item.phase
        bucket = self._round_items[round_id]
        if bucket and bucket[0] is item:  # eviction order: oldest first
            bucket.pop(0)
        else:
            bucket.remove(item)
        pair = ordered_edge(item.reporter, item.suspect)
        pending = self._pair_pending.get(pair)
        if pending and pending[0] is item:  # same oldest-first eviction order
            pending.pop(0)
            if not pending:
                del self._pair_pending[pair]
        counts = self._round_phase_counts[round_id]
        remaining = counts[phase] - 1
        was_effective = phase == self._round_min_phase[round_id]
        if remaining:
            counts[phase] = remaining
        else:
            del counts[phase]
        if was_effective:
            self._remove_contribution(item)
            self._dirty = True
        if not counts:
            del self._round_phase_counts[round_id]
            del self._round_min_phase[round_id]
            del self._round_items[round_id]
        elif was_effective and phase not in counts:
            new_min = min(counts)
            self._round_min_phase[round_id] = new_min
            for other in bucket:
                if other.phase == new_min:
                    self._add_contribution(other)

    def _evict_oldest(self) -> None:
        self._unregister_item(self._items.popleft())

    def _on_faulty_changed(self) -> None:
        """F changed (new proof-of-misbehavior): V = Π\\F\\C moves even
        though the suspicion registries did not."""
        self._dirty = True
        self._refresh()

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    def _faulty_set(self) -> Set[int]:
        if self.misbehavior is None:
            return set()
        return set(self.misbehavior.faulty)

    def _effective_items(self) -> List[_SuspicionItem]:
        """Causal filtering (§4.2.3), applied retroactively.

        For each round only the suspicions from the earliest phase are
        effective: a single delayed message delays every later phase, so
        later-phase suspicions of the same round are causally implied.
        Applying this over the full item set (rather than online) means
        a Byzantine replica cannot win by racing its later-phase
        suspicions into the log ahead of the legitimate ones.  Served
        from the incrementally maintained per-round min-phase map.
        """
        min_phase = self._round_min_phase
        return [
            item for item in self._items if item.phase == min_phase[item.round_id]
        ]

    def _refresh(self) -> None:
        """Re-derive C, G, K, u from the registries (deterministic).

        The MIS is only re-solved when the structural fingerprint --
        vertex set, edge set and (for order-sensitive subclasses) the
        effective edge order -- actually changed; the overflow rule loops
        through :meth:`_evict_oldest` until K is large enough ("too many
        suspicions occur when G no longer contains an independent set of
        size n - f", Lemma 1).
        """
        while True:
            faulty = self._faulty_set()
            if faulty:
                crashed = {s for s in self._oneway_counts if s not in faulty}
            else:
                crashed = set(self._oneway_counts)
            excluded = faulty | crashed
            if excluded:
                vertices = [v for v in range(self.n) if v not in excluded]
            else:
                vertices = list(range(self.n))
            vertex_set = set(vertices)
            edges = sorted(
                edge
                for edge in self._edge_counts
                if edge[0] in vertex_set and edge[1] in vertex_set
            )
            graph = Graph.from_parts(vertices, edges)
            key = self._structure_key(vertices, edges)
            if key == self._derive_key and self._derive_cache is not None:
                candidates, u = self._derive_cache
            else:
                candidates, u = self._derive(graph)
                self._derive_key = key
                self._derive_cache = (candidates, u)
            if len(candidates) >= self._min_candidates() or not self._items:
                break
            self._evict_oldest()
        self.crashed = crashed
        self.graph = graph
        self.candidates = candidates
        self.u = u
        self._dirty = False

    def _min_candidates(self) -> int:
        """Smallest tolerable candidate set (n - f for the base monitor)."""
        return self.n - self.f

    def _structure_key(self, vertices: List[int], edges: List[Edge]) -> tuple:
        """Fingerprint of everything :meth:`_derive` reads.  The base
        monitor's K is a pure function of the graph; subclasses whose
        derivation is order-sensitive must extend this."""
        return (tuple(vertices), tuple(edges))

    def _derive(self, graph: Graph) -> Tuple[FrozenSet[int], int]:
        """(K, u) from the suspicion graph; overridden by the tree variant
        (which also reads the effective items' arrival order)."""
        candidates = self._candidate_set(graph)
        u = max(0, len(graph) - len(candidates))
        return candidates, u

    def _candidate_set(self, graph: Graph) -> FrozenSet[int]:
        """Maximum independent set over the suspicion graph.

        Replicas with no suspicions at all are isolated vertices and are
        always included.  Runs on the graph's bitmask adjacency directly
        (no subgraph materialisation): the greedy path solves the full
        graph -- its zero-degree batching picks every isolated vertex in
        one pass without touching contested degrees, so the result is
        exactly ``isolated | greedy(contested subgraph)`` -- while the
        exact path restricts the masks to the contested vertices, which
        also keeps the complement graph Bron-Kerbosch works on small.
        Overridden by the tree variant (§6.4).
        """
        vertices, masks = graph.adjacency_bitmasks()
        contested_count = sum(1 for mask in masks if mask)
        if not contested_count:
            return frozenset(vertices)
        if contested_count <= self.exact_mis_threshold:
            contested = [v for v, mask in zip(vertices, masks) if mask]
            isolated = frozenset(
                v for v, mask in zip(vertices, masks) if not mask
            )
            sub_vertices, sub_masks = graph.adjacency_bitmasks(keep=contested)
            return isolated | maximum_independent_set_masks(
                sub_vertices, sub_masks
            )
        return greedy_independent_set_masks(vertices, masks)

    # ------------------------------------------------------------------
    # Queries (paper notation)
    # ------------------------------------------------------------------
    @property
    def C(self) -> FrozenSet[int]:  # noqa: N802 - paper notation
        return frozenset(self.crashed)

    @property
    def K(self) -> FrozenSet[int]:  # noqa: N802 - paper notation
        return self.candidates

    def estimate(self) -> Tuple[FrozenSet[int], int]:
        """The pair (K, u) consumed by the ConfigSensor."""
        return self.candidates, self.u
