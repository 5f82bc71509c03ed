"""PBFT/BFT-SMaRt engine hosting Aware and OptiAware (§5, Fig. 7).

Three operating modes, matching the Fig. 7 baselines:

* ``"static"`` -- BFT-SMaRt: fixed leader 0, uniform weights, no
  measurement machinery.
* ``"aware"`` -- Aware: probe-based latency measurement plus periodic
  (leader, Vmax) optimization; **no** suspicion handling, so a leader
  that answers probes promptly but delays protocol messages is never
  detected.
* ``"optiaware"`` -- OptiAware: Aware plus OptiLog's suspicion pipeline;
  delayed protocol messages raise suspicions, the attacker drops out of
  the candidate set ``K``, and the next reconfiguration excludes it.

Message pattern (BFT-SMaRt names; PBFT's in parentheses): Propose
(Pre-Prepare) → Write (Prepare) → Accept (Commit), with Wheat weighted
quorums.  One instance runs at a time (BFT-SMaRt's default), driven by a
closed-loop client; measurement records ride in the leader's blocks.

Condition (a) of the suspicion table (proposal-timestamp pacing) is not
armed in this engine: with closed-loop clients, round spacing is
client-driven, so only saturated pipelines (Kauri/OptiTree) can
meaningfully pace-check the leader.  Condition (b) -- late protocol
messages relative to the proposal timestamp -- is what detects the
Pre-Prepare delay attack.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Set

from repro.aware.optiaware import OptiAware
from repro.aware.weights import WeightConfiguration
from repro.consensus.base import ClusterBase, ReplicaBase
from repro.consensus.messages import (
    Block,
    ClientRequest,
    Commit,
    PrePrepare,
    Prepare,
    Probe,
    ProbeReply,
    RecordGossip,
)
from repro.core.pipeline import PipelineSettings
from repro.core.suspicion import SuspicionSensor
from repro.crypto.signatures import KeyRegistry
from repro.net.deployments import Deployment
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.workloads.base import ClientSiteRouter, Workload
from repro.workloads.closed_loop import ClosedLoopWorkload

class PbftReplica(ReplicaBase):
    """One PBFT replica, optionally wrapped with Aware/OptiAware."""

    #: Requests per block.
    batch_size = 64

    def __init__(
        self,
        replica_id: int,
        n: int,
        f: int,
        sim: Simulator,
        network: Network,
        registry: KeyRegistry,
        mode: str = "static",
        delta: float = 1.0,
        default_config: Optional[WeightConfiguration] = None,
    ):
        super().__init__(replica_id, n, f, sim, network, registry)
        if mode not in ("static", "aware", "optiaware"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.delta = delta
        # Consensus state.
        self.seq = 0
        self.executed_seq = 0
        self.pending_records: List = []
        self.preprepares: Dict[int, PrePrepare] = {}
        self.prepare_weight: Dict[int, float] = {}
        # Sender accumulators are int bitmasks (bit ``src`` set once the
        # sender's vote landed), not sets: a CPython set of ~n small ints
        # costs tens of KB per seq at n=4096 (~860 MB across in-flight
        # seqs and replicas), an n-bit int a few hundred bytes.  Senders
        # are unhashed by the trace oracle, so the representation swap
        # leaves seeded state traces bit-identical.
        self.prepare_senders: Dict[int, int] = {}
        self.commit_weight: Dict[int, float] = {}
        self.commit_senders: Dict[int, int] = {}
        self.sent_commit: Set[int] = set()
        self.executed: Set[int] = set()
        self.in_flight: Optional[int] = None
        #: BFT-SMaRt without Wheat: uniform votes, majority quorum.
        self.uniform_voting = mode == "static"
        self._uniform_quorum = float(-(-(n + f + 1) // 2))  # ceil majority
        # Aware / OptiAware stack.
        self.optilog: Optional[OptiAware] = None
        #: The SuspicionSensor, in the one mode that feeds it.
        self._sensor: Optional[SuspicionSensor] = None
        if mode in ("aware", "optiaware"):
            self.optilog = OptiAware(
                replica_id,
                n,
                f,
                registry=registry,
                settings=PipelineSettings(n=n, f=f, delta=delta),
                propose=self._gossip_record,
                use_suspicions=(mode == "optiaware"),
                on_reconfigure=self._on_reconfigure,
            )
            self.config = self.optilog.default_configuration()
        elif default_config is not None:
            # Shared across the cluster's replicas: the static default is
            # identical and immutable, and its vmax frozenset is O(n) --
            # per-replica copies cost O(n^2) at build (~1.4 GB at n=4096).
            self.config = default_config
        else:
            self.config = WeightConfiguration(
                n=n, f=f, leader=0, vmax_replicas=frozenset(range(2 * f))
            )
        self.pending_config: Optional[WeightConfiguration] = None
        self.reconfigure_times: List[float] = []
        #: PrePrepares from replicas that are not (yet) our leader; they
        #: are replayed after a reconfiguration adopts that leader.
        self.stale_preprepares: Dict[int, List[PrePrepare]] = {}
        if mode == "optiaware":
            self._sensor = self.optilog.pipeline.suspicion_sensor
        #: Seqs at or below this were executed and compacted away; late
        #: messages for them are ignored like any other duplicate.
        self._compact_floor = 0

    # ------------------------------------------------------------------
    # Roles and weights
    # ------------------------------------------------------------------
    @property
    def config(self) -> WeightConfiguration:
        return self._config

    @config.setter
    def config(self, config: WeightConfiguration) -> None:
        """Adopt ``config`` and compile what every vote reads from it:
        the leader (this setter is the only writer of ``leader`` and
        ``is_leader``), the per-sender vote weights (``None`` = every vote
        weighs 1.0; uniform voting must not cost O(n) per replica) and
        the quorum weight."""
        self._config = config
        self.leader = config.leader
        self.is_leader = config.leader == self.id
        if self.uniform_voting:
            self._weights: Optional[List[float]] = None
            self._quorum_weight = self._uniform_quorum
        else:
            self._weights = config.weight_vector().tolist()
            self._quorum_weight = config.quorum_weight

    # ------------------------------------------------------------------
    # Client path
    # ------------------------------------------------------------------
    def handle_ClientRequest(self, src: int, request: ClientRequest) -> None:  # noqa: N802
        if not self.running:
            return
        # Every replica buffers requests (BFT-SMaRt clients send to all);
        # whoever is leader when proposing drains the buffer, so requests
        # survive leader changes.
        key = (request.client_id, request.request_id)
        if key in self._claimed_requests or key in self._claimed_requests_old:
            return
        self.pending_requests.append(request)
        if self.is_leader:
            self._maybe_propose()

    def _maybe_propose(self) -> None:
        if not self.running or not self.is_leader or self.in_flight is not None:
            return
        if not self.pending_requests and not self.pending_records:
            return
        batch = self.pending_requests[: self.batch_size]
        self.pending_requests = self.pending_requests[len(batch):]
        records = tuple(self.pending_records)
        self.pending_records = []
        self.seq += 1
        block = Block(
            height=self.seq,
            proposer=self.id,
            parent="",
            payload_count=len(batch),
            records=records,
            timestamp=self.sim.now,
            request_ids=tuple((r.client_id, r.request_id, r.send_time) for r in batch),
        )
        self.in_flight = self.seq
        message = PrePrepare(
            view=self.log_view, seq=self.seq, block=block, timestamp=self.sim.now
        )
        self.broadcast(message)

    @property
    def log_view(self) -> int:
        return len(self.reconfigure_times)

    # ------------------------------------------------------------------
    # Three phases
    # ------------------------------------------------------------------
    def handle_PrePrepare(self, src: int, message: PrePrepare) -> None:  # noqa: N802
        if not self.running:
            return
        if src != self.leader:
            # Possibly a new leader we have not adopted yet; replay later.
            self.stale_preprepares.setdefault(src, []).append(message)
            return
        if message.seq in self.preprepares or message.seq <= self._compact_floor:
            return
        self.preprepares[message.seq] = message
        sensor = self._sensor
        if sensor is not None:
            self._arm_suspicion_round(sensor, message)
            sensor.on_message(message.seq, src, "propose", self.sim.now)
        self.broadcast(
            Prepare(
                view=message.view,
                seq=message.seq,
                block_hash=message.block.hash,
                sender=self.id,
            )
        )

    # One vote rule for Prepare and Commit: (1) a sender's second vote is dropped; (2) the
    # OptiAware sensor sees every vote, late ones included; (3) the door:
    # a vote for a decided phase (Prepare after our Commit went out,
    # Commit after execution) or for a compacted seq returns without
    # writing; (4) the vote accumulates; (5) only a running weight at the
    # quorum calls _maybe_send_commit / _maybe_execute, which delete the
    # phase's accumulators -- nothing reads them again, and the door keeps
    # late votes from re-creating them.
    def handle_Prepare(self, src: int, message: Prepare) -> None:  # noqa: N802
        if not self.running:
            return
        seq = message.seq
        senders = self.prepare_senders.get(seq, 0)
        bit = 1 << src
        if senders & bit:
            return
        sensor = self._sensor
        if sensor is not None:
            sensor.on_message(seq, src, "write", self.sim.now)
        if seq in self.sent_commit or seq <= self._compact_floor:
            return
        self.prepare_senders[seq] = senders | bit
        weights = self._weights
        weight = self.prepare_weight.get(seq, 0.0) + (
            1.0 if weights is None else weights[src]
        )
        self.prepare_weight[seq] = weight
        if weight >= self._quorum_weight:
            self._maybe_send_commit(seq)

    def _maybe_send_commit(self, seq: int) -> None:
        """Prepare quorum reached: send our Commit once the PrePrepare is
        known (every later Prepare re-checks until it is)."""
        preprepare = self.preprepares.get(seq)
        if preprepare is None:
            return
        self.sent_commit.add(seq)
        del self.prepare_senders[seq]
        del self.prepare_weight[seq]
        self.broadcast(
            Commit(
                view=preprepare.view,
                seq=seq,
                block_hash=preprepare.block.hash,
                sender=self.id,
            )
        )

    def handle_Commit(self, src: int, message: Commit) -> None:  # noqa: N802
        if not self.running:
            return
        seq = message.seq
        senders = self.commit_senders.get(seq, 0)
        bit = 1 << src
        if senders & bit:
            return
        sensor = self._sensor
        if sensor is not None:
            sensor.on_message(seq, src, "accept", self.sim.now)
        if seq in self.executed or seq <= self._compact_floor:
            return
        self.commit_senders[seq] = senders | bit
        weights = self._weights
        weight = self.commit_weight.get(seq, 0.0) + (
            1.0 if weights is None else weights[src]
        )
        self.commit_weight[seq] = weight
        if weight >= self._quorum_weight:
            self._maybe_execute(seq)

    def _maybe_execute(self, seq: int) -> None:
        """Commit quorum reached: execute once our own Commit went out
        (every later Commit re-checks until it has)."""
        if seq not in self.sent_commit:  # implies the PrePrepare is known
            return
        self.executed.add(seq)
        del self.commit_senders[seq]
        del self.commit_weight[seq]
        self.executed_seq = max(self.executed_seq, seq)
        block = self.preprepares[seq].block
        self._commit(seq, block)
        self._claim_requests(block)
        if self.optilog is not None and block.records:
            # Gossip bursts commit whole blocks of records at once;
            # the batched path hoists the per-append lookups.
            self.optilog.pipeline.log.append_many(block.records)
        self._adopt_pending_config()
        if self.in_flight == seq:
            self.in_flight = None
        self._maybe_propose()

    # ------------------------------------------------------------------
    # Campaign-plane compaction
    # ------------------------------------------------------------------
    def compact(self, keep: int = 128) -> None:
        """Drop the per-sequence guards the protocol can no longer read.

        Called at campaign slice boundaries so multi-million-request runs
        keep O(1) consensus memory.  Only *executed* seqs at least
        ``keep`` behind ``executed_seq`` are pruned: their preprepare /
        ``sent_commit`` / ``executed`` entries give way to the
        ``_compact_floor`` check every handler makes, so late messages
        for pruned seqs are dropped exactly like duplicates.  Vote
        accumulators are not swept: the handler that decides a phase
        already deleted them (see the vote rule above ``handle_Prepare``).
        Committed request keys age in ``ReplicaBase.compact``.
        Deterministic: pruning is a pure function of replica state.
        """
        floor = self.executed_seq - keep
        if floor > self._compact_floor:
            for seq in [s for s in self.executed if s <= floor]:
                self.preprepares.pop(seq, None)
                self.sent_commit.discard(seq)
                self.executed.discard(seq)
            self._compact_floor = floor
            if self._sensor is not None:
                # The per-round suspicion maps are keyed by seq as well;
                # rounds still waiting on a message keep everything.
                live = self._sensor.forget_through(floor)
                self.optilog.pipeline.suspicion_monitor.forget_rounds_through(floor, live)
        super().compact(keep)

    # ------------------------------------------------------------------
    # State transfer (a revived replica; see ClusterBase.catch_up)
    # ------------------------------------------------------------------
    @property
    def progress(self) -> int:
        return self.executed_seq

    def adopt_state(self, donor: "PbftReplica") -> None:
        """Adopt ``donor``'s configuration, sequence numbers and committed
        request keys, abandon the instance in flight, and replay the
        committed OptiLog records slept through so the monitors converge
        with the fleet (the log is a prefix of the donor's: commit order
        is total)."""
        super().adopt_state(donor)
        self.config = donor.config
        self.pending_config = None
        self.seq = max(self.seq, donor.seq)
        self.executed_seq = max(self.executed_seq, donor.executed_seq)
        self.in_flight = None
        if self.optilog is not None and donor.optilog is not None:
            mine = self.optilog.pipeline.log
            theirs = donor.optilog.pipeline.log
            for entry in list(theirs)[len(mine):]:
                mine.append(entry.record, view=entry.view)

    # ------------------------------------------------------------------
    # OptiLog integration
    # ------------------------------------------------------------------
    def _gossip_record(self, record) -> None:
        """Sensor-app transport: ship the record to the current leader."""
        self.send(self.leader, RecordGossip(record=record, sender=self.id))

    def handle_RecordGossip(self, src: int, message: RecordGossip) -> None:  # noqa: N802
        if not self.running:
            return
        if not self.is_leader:
            # Forward to whoever we currently follow (bounded hops so a
            # transient leadership disagreement cannot loop forever).
            if message.hops < 3:
                self.send(
                    self.leader,
                    RecordGossip(
                        record=message.record,
                        sender=message.sender,
                        hops=message.hops + 1,
                    ),
                )
            return
        self.pending_records.append(message.record)
        self._maybe_propose()

    def _arm_suspicion_round(self, sensor: SuspicionSensor, message: PrePrepare) -> None:
        """Feed the SuspicionSensor for this round (OptiAware only)."""
        plan = self.optilog.round_plan(self._config)
        if plan is None:
            return  # latency matrix still incomplete
        seq = message.seq
        sensor.begin_round(
            round_id=seq,
            leader=self.leader,
            proposal_timestamp=message.timestamp,
            d_rnd=math.inf,  # condition (a) unarmed: client-paced rounds
            plan=plan,
            view=self.log_view,
        )
        self.optilog.pipeline.suspicion_monitor.note_round_leader(seq, self.leader)
        horizon = sensor.round_horizon(seq)
        if horizon is not None and horizon > self.sim.now:
            slack = 0.005
            self.sim.schedule(horizon - self.sim.now + slack, self._check_round, seq)

    def _check_round(self, seq: int) -> None:
        if self._sensor is None or not self.running:
            return
        self._sensor.check_round(seq, self.sim.now, view=self.log_view)
        self._sensor.forget_round(seq)

    # ------------------------------------------------------------------
    # Probes (Aware's latency infrastructure)
    # ------------------------------------------------------------------
    def probe_peers(self) -> None:
        for peer in range(self.n):
            if peer != self.id:
                self.send(peer, Probe(nonce=self.id, sender=self.id, send_time=self.sim.now))

    def handle_Probe(self, src: int, message: Probe) -> None:  # noqa: N802
        self.send(
            src,
            ProbeReply(
                nonce=message.nonce,
                sender=self.id,
                probe_send_time=message.send_time,
            ),
        )

    def handle_ProbeReply(self, src: int, message: ProbeReply) -> None:  # noqa: N802
        if self.optilog is None:
            return
        rtt = self.sim.now - message.probe_send_time
        self.optilog.pipeline.latency_sensor.observe_rtt(src, rtt)

    def publish_latency_vector(self) -> None:
        if self.optilog is not None:
            self.optilog.pipeline.latency_sensor.measure_and_record(
                view=self.log_view
            )

    def run_config_search(self) -> None:
        if self.optilog is not None:
            sensor = self.optilog.pipeline.config_sensor
            sensor.search_and_propose(
                view=self.log_view,
                basis_seq=self.optilog.pipeline.log.last_seq,
            )

    # ------------------------------------------------------------------
    # Reconfiguration
    # ------------------------------------------------------------------
    def _on_reconfigure(self, decision) -> None:
        self.pending_config = decision.configuration

    def _adopt_pending_config(self) -> None:
        if self.pending_config is None:
            return
        self.config = self.pending_config
        self.pending_config = None
        self.reconfigure_times.append(self.sim.now)
        if self.optilog is not None:
            self.optilog.pipeline.advance_view(self.log_view)
        # Sequence numbers continue from everything we have seen, so the
        # new leader does not collide with the old history.
        # ``executed_seq`` joins the max because compact() may have pruned
        # the preprepare entries that proved the history.
        highest_seen = max(self.preprepares, default=0)
        self.seq = max(self.seq, highest_seen, self.executed_seq)
        self.in_flight = None
        # Replay proposals that arrived from the new leader before we
        # adopted it.
        stale = self.stale_preprepares.pop(self.leader, [])
        for message in stale:
            self.handle_PrePrepare(self.leader, message)
        self._maybe_propose()


class PbftCluster(ClusterBase):
    """A PBFT deployment driven by a workload (Fig. 7: one closed-loop
    observer client; any :class:`repro.workloads.Workload` attaches)."""

    def __init__(
        self,
        deployment: Deployment,
        mode: str = "static",
        delta: float = 1.0,
        seed: int = 0,
        jitter: float = 0.02,
        client_city_index: Optional[int] = None,
        workload: Optional[Workload] = None,
    ):
        self.mode = mode
        # The default client lives in one of the cities (Fig. 7:
        # Nuremberg), co-located with that city's replica (sub-ms RTT);
        # multi-client workloads pin their clients to other cities via
        # ``place_client``.
        self.client_city = (
            client_city_index if client_city_index is not None else 0
        )
        self.router = ClientSiteRouter(
            deployment.one_way, deployment.n, default_site=self.client_city
        )
        self._build_network(deployment, self.router, seed, jitter)
        n = self.n
        default_config = None
        if mode == "static":
            default_config = WeightConfiguration(
                n=n, f=self.f, leader=0,
                vmax_replicas=frozenset(range(2 * self.f)),
            )
        self.replicas: List[PbftReplica] = [
            PbftReplica(
                replica_id, n, self.f, self.sim, self.network, self.registry,
                mode=mode, delta=delta, default_config=default_config,
            )
            for replica_id in range(n)
        ]
        self._bind(workload if workload is not None else ClosedLoopWorkload())
        #: The observer endpoint (first client), kept for Fig. 7-style
        #: ``cluster.client.latency_series(...)`` access.
        self.client = self.workload.clients[0] if self.workload.clients else None

    # ------------------------------------------------------------------
    # Measurement cadence (probes, vectors, searches)
    # ------------------------------------------------------------------
    def schedule_measurements(
        self,
        probe_at: float = 5.0,
        publish_at: float = 15.0,
        first_search_at: float = 40.0,
        search_period: float = 25.0,
        horizon: float = 180.0,
    ) -> None:
        """Arrange the Fig. 7 cadence: probe, publish vectors, then run
        periodic configuration searches on every replica, at
        ``first_search_at``, then every ``search_period`` up to
        ``horizon``.  Each search queues the replica's next one, so the
        heap holds one pending search per replica, not the cadence."""
        if self.mode == "static":
            return
        for replica in self.replicas:
            self.sim.schedule_at(probe_at, replica.probe_peers)
            self.sim.schedule_at(publish_at, replica.publish_latency_vector)
        if first_search_at <= horizon:
            for replica in self.replicas:
                self.sim.schedule_at(
                    first_search_at, self._search, replica, first_search_at,
                    search_period, horizon,
                )

    def _search(
        self, replica: PbftReplica, search_time: float, search_period: float,
        horizon: float,
    ) -> None:
        """``replica``'s search at ``search_time``; queues its next one
        first, at ``search_time + search_period`` while that is within
        ``horizon``."""
        search_time += search_period
        if search_time <= horizon:
            self.sim.schedule_at(
                search_time, self._search, replica, search_time,
                search_period, horizon,
            )
        replica.run_config_search()

    @property
    def observer(self) -> PbftReplica:
        return self.replicas[0]

    @property
    def current_leader(self) -> int:
        return self.replicas[0].config.leader
