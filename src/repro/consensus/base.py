"""Shared replica and cluster machinery, and run metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.consensus.messages import Block, ClientRequest, Reply
from repro.crypto.signatures import KeyRegistry
from repro.net.deployments import Deployment
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.workloads.base import ClientSiteRouter, ClusterBinding, Workload, percentile


class CommitEvent(NamedTuple):
    """One committed block, for throughput/latency accounting.

    A ``NamedTuple``: every replica records every commit, so construction
    sits on the hot path at large n.
    """

    height: int
    commit_time: float
    propose_time: float
    payload_count: int

    @property
    def latency(self) -> float:
        return self.commit_time - self.propose_time


@dataclass
class RunMetrics:
    """Per-run metrics collected at one observer replica.

    ``throughput_series(bucket)`` returns committed requests per second
    in time buckets, the series the paper's timelines plot (Figs. 7, 15).
    """

    commits: List[CommitEvent] = field(default_factory=list)

    def commit_sink(self) -> Callable[[CommitEvent], None]:
        """Hot-path sink taking a ready-made :class:`CommitEvent`.

        The streaming twin in :mod:`repro.metrics` implements the same
        method, so replicas prebind one callable and never know which
        measurement mode is active.
        """
        return self.commits.append

    def total_requests(self) -> int:
        return sum(event.payload_count for event in self.commits)

    def committed_blocks(self) -> int:
        return len(self.commits)

    def throughput(self, duration: float) -> float:
        """Average committed requests per second over ``duration``."""
        if duration <= 0:
            return 0.0
        return self.total_requests() / duration

    def mean_latency(self) -> float:
        if not self.commits:
            return float("inf")
        return sum(event.latency for event in self.commits) / len(self.commits)

    def throughput_series(
        self, duration: float, bucket: float = 1.0
    ) -> List[Tuple[float, float]]:
        buckets = int(duration / bucket) + 1
        series = [0.0] * buckets
        for event in self.commits:
            index = int(event.commit_time / bucket)
            if 0 <= index < buckets:
                series[index] += event.payload_count
        return [(index * bucket, count / bucket) for index, count in enumerate(series)]

    def latency_summary(self) -> Optional[Dict[str, float]]:
        """Commit-latency mean/p50/p90/p99, or None without commits.

        The mean re-sums the *sorted* latencies -- the historical
        ``ScenarioResult.metrics`` computation, preserved bit-for-bit so
        golden files survive the move to this method.
        """
        if not self.commits:
            return None
        values = sorted(event.latency for event in self.commits)
        return {
            "mean": sum(values) / len(values),
            "p50": percentile(values, 0.50),
            "p90": percentile(values, 0.90),
            "p99": percentile(values, 0.99),
        }

    def latency_series(
        self, duration: float, bucket: float = 1.0
    ) -> List[Tuple[float, float]]:
        """Mean commit latency per time bucket (seconds)."""
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for event in self.commits:
            index = int(event.commit_time / bucket)
            sums[index] = sums.get(index, 0.0) + event.latency
            counts[index] = counts.get(index, 0) + 1
        return [
            (index * bucket, sums[index] / counts[index]) for index in sorted(sums)
        ]


_REPLY_SIZE = Reply.wire_size


class ReplicaBase:
    """Common state and helpers for protocol replicas: dispatch, the one
    commit path (:meth:`_commit`) and the client request book."""

    def __init__(
        self,
        replica_id: int,
        n: int,
        f: int,
        sim: Simulator,
        network: Network,
        registry: KeyRegistry,
    ):
        self.id = replica_id
        self.n = n
        self.f = f
        self.sim = sim
        self.network = network
        self.registry = registry
        self.metrics = RunMetrics()
        self.running = False
        self.pending_requests: List[ClientRequest] = []
        #: (client_id, request_id) keys already claimed or committed;
        #: buffered requests with these keys are dropped.
        self._claimed_requests: Set[Tuple[int, int]] = set()
        #: Previous generation of claimed keys (see compact()).
        self._claimed_requests_old: Set[Tuple[int, int]] = set()
        #: Unweighted quorum size q = n - f.  A plain attribute (not a
        #: property): it is read once per vote on the hot path.
        self.quorum = n - f
        #: message class -> bound handler (or None), so the per-delivery
        #: dispatch is one dict hit instead of an f-string + getattr.
        self._handler_cache: Dict[type, Optional[Callable[[int, Any], None]]] = {}
        #: Pre-bound hot-path callables: one send per protocol message and
        #: one commit record per block make the descriptor lookups
        #: measurable.
        self._network_send = network.send
        self._commits_append = self.metrics.commit_sink()
        network.register(replica_id, self.on_message)
        # The live cache doubles as the network's delivery fast path:
        # classes it already maps skip the on_message dispatch frame.
        network.register_dispatch(replica_id, self._handler_cache)

    def use_metrics(self, metrics: Any) -> None:
        """Swap the metrics observer and rebind the commit fast path.

        ``metrics`` is anything with the :class:`RunMetrics` query API
        plus ``commit_sink()`` -- in practice :class:`RunMetrics` itself
        or the streaming twin from :mod:`repro.metrics`.  Must run before
        the replica commits anything; commits already recorded stay with
        the old observer.
        """
        self.metrics = metrics
        self._commits_append = metrics.commit_sink()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.running = True

    def stop(self) -> None:
        self.running = False

    # ------------------------------------------------------------------
    # Commit path and request book
    # ------------------------------------------------------------------
    def _commit(self, height: int, block: Block) -> None:
        """Record ``block`` committed at ``height`` and reply to its
        clients: the one place any engine commits a block."""
        now = self.sim.now
        # tuple.__new__ skips the NamedTuple __new__ frame: every replica
        # records every commit.
        self._commits_append(
            tuple.__new__(
                CommitEvent, (height, now, block.timestamp, block.payload_count)
            )
        )
        replica = self.id
        send = self._network_send
        for client_id, request_id, _send_time in block.request_ids:
            send(replica, client_id, Reply(replica, request_id, now), _REPLY_SIZE)

    def _claim_requests(self, block: Block) -> None:
        """Mark ``block``'s requests claimed and drop them from the
        buffer, so no later proposal re-batches (and re-commits) them."""
        keys = {(cid, rid) for cid, rid, _send_time in block.request_ids}
        self._claimed_requests |= keys
        self.pending_requests = [
            request
            for request in self.pending_requests
            if (request.client_id, request.request_id) not in keys
        ]

    def compact(self, keep: int = 128) -> None:
        """Age the claimed request keys through two generations: a key
        survives at least one full compaction interval, which exceeds any
        in-flight client request's delivery time, so de-duplication never
        misses.  Engines prune their own per-height state first."""
        self._claimed_requests_old = self._claimed_requests
        self._claimed_requests = set()

    def adopt_state(self, donor: "ReplicaBase") -> None:
        """Adopt ``donor``'s claimed request keys (see
        ClusterBase.catch_up); engines adopt their own commit point."""
        self._claimed_requests |= donor._claimed_requests
        self._claimed_requests_old |= donor._claimed_requests_old

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, dst: int, message: Any) -> None:
        # Direct attribute, not getattr-with-default: every protocol
        # message defines wire_size (class constant or property).
        self._network_send(self.id, dst, message, message.wire_size)

    def multicast(self, dsts, message: Any) -> None:
        self.network.multicast(self.id, dsts, message, message.wire_size)

    def broadcast(self, message: Any, include_self: bool = True) -> None:
        dsts = range(self.n) if include_self else (
            replica for replica in range(self.n) if replica != self.id
        )
        self.multicast(dsts, message)

    # ------------------------------------------------------------------
    # Dispatch: handle_<MessageType> methods by convention
    # ------------------------------------------------------------------
    def on_message(self, src: int, message: Any) -> None:
        cls = message.__class__
        try:
            handler = self._handler_cache[cls]
        except KeyError:
            handler = getattr(self, f"handle_{cls.__name__}", None)
            self._handler_cache[cls] = handler
        if handler is not None:
            handler(src, message)


#: Parent of a chain's first block.
GENESIS_HASH = "genesis"


class ChainedReplica(ReplicaBase):
    """What HotStuff and Kauri share: the 3-chain commit rule over
    certified heights, and a request book their proposers drain in
    request-driven mode.

    Per-height state lives only while a handler can still read it
    (docs/ARCHITECTURE.md, "State lifetime"): a block leaves
    ``block_at_height`` when it commits; only ``qc_heights`` waits for
    :meth:`compact`.
    """

    def __init__(
        self,
        replica_id: int,
        n: int,
        f: int,
        sim: Simulator,
        network: Network,
        registry: KeyRegistry,
    ):
        super().__init__(replica_id, n, f, sim, network, registry)
        #: Blocks this replica may still commit, deleted on commit.
        self.block_at_height: Dict[int, Block] = {}
        self.qc_heights: Set[int] = set()
        self.committed_height = 0
        #: Request-driven mode (workload attached): blocks batch buffered
        #: client requests instead of the fixed synthetic payload, and
        #: committing replicas reply to clients.
        self.request_driven = False

    # ------------------------------------------------------------------
    # Client path (request-driven mode only)
    # ------------------------------------------------------------------
    def handle_ClientRequest(self, src: int, request: ClientRequest) -> None:  # noqa: N802
        """Buffer client traffic for whichever replica proposes next.

        Clients broadcast to every replica, so a future leader (or root)
        already holds the backlog.
        """
        if not self.running or not self.request_driven:
            return
        key = (request.client_id, request.request_id)
        if key in self._claimed_requests or key in self._claimed_requests_old:
            return
        self.pending_requests.append(request)

    # ------------------------------------------------------------------
    # Commit rule
    # ------------------------------------------------------------------
    def _try_commit(self, height: int) -> None:
        """3-chain rule: QCs at h, h-1, h-2 commit the block at h-2 and
        every uncommitted block below it."""
        if height < 3:
            return
        qc_heights = self.qc_heights
        if height - 1 not in qc_heights or height - 2 not in qc_heights:
            return
        target = height - 2
        committed = self.committed_height
        if target <= committed:
            return
        blocks = self.block_at_height
        for commit_height in range(committed + 1, target + 1):
            # Committed: no reader looks at or below committed_height.
            block = blocks.pop(commit_height, None)
            if block is not None:
                self._commit(commit_height, block)
        self.committed_height = target

    # ------------------------------------------------------------------
    # Campaign-plane compaction and state transfer
    # ------------------------------------------------------------------
    def compact(self, keep: int = 128) -> None:
        """Floor ``qc_heights`` at ``committed_height - keep`` and age the
        claimed request keys.

        Every other per-height map retires its own entries, in every run;
        ``qc_heights`` is part of the state trace and the commit rule
        reads two heights back, so it is only floored here.
        """
        floor = self.committed_height - keep
        self.qc_heights = {h for h in self.qc_heights if h > floor}
        super().compact(keep)

    @property
    def progress(self) -> int:
        return self.committed_height

    def adopt_state(self, donor: "ChainedReplica") -> None:
        """Adopt ``donor``'s commit point and claimed request keys."""
        super().adopt_state(donor)
        self.committed_height = max(self.committed_height, donor.committed_height)


class ClusterBase:
    """What the protocol clusters share: the run lifecycle, workload
    attachment, compaction and state transfer to a revived replica.

    A subclass calls :meth:`_build_network`, then builds ``replicas``,
    and names the replica whose metrics a run reports (:attr:`observer`).
    """

    deployment: Deployment
    n: int
    f: int
    sim: Simulator
    network: Network
    replicas: List[Any]
    observer: ReplicaBase
    workload: Optional[Workload] = None

    def _build_network(
        self,
        deployment: Deployment,
        one_way: Callable[[int, int], float],
        seed: int,
        jitter: float,
    ) -> None:
        """Set ``deployment``, ``n``, ``f = (n - 1) // 3``, then build
        ``sim``, ``network`` over ``one_way`` (its jitter stream derives
        from the simulator) and ``registry``, in that order."""
        self.deployment = deployment
        self.n = n = deployment.n
        self.f = (n - 1) // 3
        self.sim = Simulator(seed=seed)
        self.network = Network(self.sim, one_way, jitter=jitter)
        self.registry = KeyRegistry(n, seed=seed)

    @property
    def replies_needed(self) -> int:
        """Matching replies a client collects per request."""
        return self.f + 1

    def attach_workload(self, workload: Workload, client_city: int = 0) -> None:
        """Switch a self-clocked engine (HotStuff, Kauri) to
        request-driven mode under ``workload``; PBFT binds its workload
        at construction.

        Blocks then batch real client requests (payload capped at
        ``payload_per_block``) instead of the fixed synthetic payload,
        and clients collect :attr:`replies_needed` replies per request.
        """
        self.router = ClientSiteRouter(
            self.deployment.one_way, self.n, default_site=client_city
        )
        self.network.one_way_delay = self.router
        for replica in self.replicas:
            replica.request_driven = True
        self._bind(workload)

    def _bind(self, workload: Workload) -> None:
        workload.bind(
            ClusterBinding(
                sim=self.sim,
                network=self.network,
                n=self.n,
                replies_needed=self.replies_needed,
                place_client=self.router.place,
            )
        )
        self.workload = workload

    def begin(self) -> None:
        """Start replicas and workload without advancing the clock.

        ``begin`` / sliced ``sim.run`` / ``finish`` decomposes :meth:`run`
        for the campaign plane, which checkpoints between slices.  A
        resumed cluster must *not* call ``begin`` again.
        """
        for replica in self.replicas:
            replica.start()
        if self.workload is not None:
            self.workload.start()

    def finish(self) -> RunMetrics:
        if self.workload is not None:
            self.workload.stop()
        for replica in self.replicas:
            replica.stop()
        return self.observer.metrics

    def run(self, duration: float) -> RunMetrics:
        """Run for ``duration`` simulated seconds; returns the observer's
        metrics."""
        self.begin()
        self.sim.run(until=duration)
        return self.finish()

    def compact(self, keep: int = 128) -> None:
        """Prune dead per-height state on every replica (campaign slice
        boundaries; see each replica's ``compact``)."""
        for replica in self.replicas:
            replica.compact(keep)

    def catch_up(self, victim: int) -> None:
        """Fast-forward a revived replica from the most advanced live peer.

        Models the state transfer every production BFT system performs on
        rejoin: the replica adopts committed state so it cannot propose
        stale sequence numbers, vote on heights it slept through, or
        follow a leader that was voted out while it was down.  Each
        engine's ``adopt_state`` says what that state is; the donor is
        the live peer with the greatest ``progress``.
        """
        network = self.network
        peers = [
            replica
            for replica in self.replicas
            if replica.id != victim and not network.is_down(replica.id)
        ]
        if peers:
            donor = max(peers, key=lambda peer: peer.progress)
            self._transfer(self.replicas[victim], donor)

    def _transfer(self, replica: Any, donor: Any) -> None:
        replica.adopt_state(donor)
