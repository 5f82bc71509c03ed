"""Workload abstraction: pluggable traffic generators for the engines.

A :class:`Workload` is a traffic source that can be attached to any
cluster (PBFT, HotStuff, Kauri).  The cluster hands the workload a
:class:`ClusterBinding` -- simulator, network, replica count and reply
quorum -- and the workload creates one or more :class:`WorkloadClient`
endpoints that issue :class:`~repro.consensus.messages.ClientRequest`
messages and collect :class:`~repro.consensus.messages.Reply` messages.

All randomness comes from generators derived via
:meth:`repro.sim.engine.Simulator.derive_rng`, so a scenario replays
bit-identically under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.metrics import CommitEvent, Observer, RunMetrics
from repro.sim.engine import Simulator
from repro.sim.network import Network

#: Client node ids start here, or at ``n`` when a cluster has more than
#: this many replicas (see :attr:`ClusterBinding.first_client_id`).
CLIENT_ID_BASE = 1000

# The message classes live in repro.consensus, whose engine modules import
# this module at class-definition time -- so they resolve lazily (on first
# client construction) to break the import cycle, then stay cached in the
# module globals for the per-message hot path.
ClientRequest = None
Reply = None


def _import_messages() -> None:
    global ClientRequest, Reply
    if ClientRequest is None:
        from repro.consensus.messages import ClientRequest, Reply  # noqa: F811


@dataclass
class ClusterBinding:
    """What a cluster exposes to a workload when attaching it.

    Attributes
    ----------
    replies_needed:
        Distinct replica replies a client waits for before it counts a
        request as complete.  ``f + 1`` for PBFT/HotStuff (matching
        replies outvote faulty replicas); ``1`` for Kauri, where only the
        tree root tracks commits.
    place_client:
        Callback ``(client_id, site_index)`` pinning a client to a
        replica city: the cluster's delay provider
        (:meth:`~repro.net.latency_model.DelayProvider.place`).
        ``site_index=None`` leaves the cluster default (the observer
        city) in place; an index outside ``[0, n)`` raises
        ``ValueError``.
    """

    sim: Simulator
    network: Network
    n: int
    replies_needed: int
    place_client: Callable[[int, Optional[int]], None]

    @property
    def first_client_id(self) -> int:
        """Node id of the first client: above every replica id."""
        return max(CLIENT_ID_BASE, self.n)


class WorkloadClient:
    """One client endpoint; supports multiple outstanding requests.

    Latency is measured from request send to the ``replies_needed``-th
    distinct replica reply, as in the paper's closed-loop clients.  Each
    completion is one :class:`~repro.metrics.CommitEvent` (request id,
    completion time, send time, one request) recorded into ``metrics``,
    its workload's observer.
    """

    def __init__(
        self,
        client_id: int,
        binding: ClusterBinding,
        metrics: Observer,
        on_complete: Optional[Callable[["WorkloadClient"], None]] = None,
    ):
        _import_messages()
        self.id = client_id
        self.n = binding.n
        self.sim = binding.sim
        self.network = binding.network
        self.replies_needed = binding.replies_needed
        self.on_complete = on_complete
        self.next_request = 0
        self.sent = 0
        self.completed = 0
        self.use_metrics(metrics)
        self._send_times: Dict[int, float] = {}
        self._voters: Dict[int, set] = {}
        binding.network.register(client_id, self.on_message)

    def __setstate__(self, state: Dict) -> None:
        # A client restored from a checkpoint skips __init__, but its
        # message hot path reads the lazily-imported module globals
        # (``Reply``/``ClientRequest``) -- resolve them before traffic
        # arrives in the resumed process.
        _import_messages()
        self.__dict__.update(state)

    def use_metrics(self, metrics: Observer) -> None:
        """Record completions into ``metrics`` from now on."""
        self.metrics = metrics
        self._record = metrics.commit_sink()

    def submit(self) -> int:
        """Broadcast one request to every replica; returns its id."""
        self.next_request += 1
        self.sent += 1
        request = ClientRequest(
            client_id=self.id,
            request_id=self.next_request,
            send_time=self.sim.now,
        )
        self._send_times[self.next_request] = self.sim.now
        self._voters[self.next_request] = set()
        self.network.fan_out(self.id, range(self.n), request, request.wire_size)
        return self.next_request

    def on_message(self, src: int, message) -> None:
        if not isinstance(message, Reply):
            return
        request_id = message.request_id
        voters = self._voters.get(request_id)
        if voters is None:
            return
        voters.add(src)
        if len(voters) >= self.replies_needed:
            send_time = self._send_times.pop(request_id)
            del self._voters[request_id]
            self.completed += 1
            self._record(
                tuple.__new__(CommitEvent, (request_id, self.sim.now, send_time, 1))
            )
            if self.on_complete is not None:
                self.on_complete(self)

    def latency_series(self, duration: float, bucket: float = 1.0):
        """Mean end-to-end latency per time bucket over every completion
        the workload's observer recorded: this client's own series when
        it is the workload's only client (Fig. 7's observer), the merged
        series of all of them otherwise."""
        return self.metrics.latency_series(duration, bucket)


class Workload:
    """Base class for traffic generators.

    Lifecycle: construct with shape parameters, :meth:`bind` to a
    cluster, :meth:`start` when the run begins, :meth:`stop` at the end.
    Subclasses override :meth:`_make_clients` (how many endpoints, where
    they live) and the generation logic.
    """

    name = "base"

    def __init__(self, clients: int = 1, sites: Optional[Sequence[int]] = None):
        if clients < 1:
            raise ValueError(f"need at least one client, got {clients}")
        self.num_clients = clients
        self.sites = list(sites) if sites is not None else None
        self.clients: List[WorkloadClient] = []
        self.binding: Optional[ClusterBinding] = None
        self.running = False
        #: The one observer every client records its completions into.
        self.metrics: Observer = RunMetrics()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, binding: ClusterBinding) -> None:
        # Re-binding (the same Workload instance run through a second
        # cluster) starts from a clean slate: clients wired to the old
        # simulator are dropped so metrics never mix runs.
        self.clients = []
        self.running = False
        self.binding = binding
        self.rng = binding.sim.derive_rng(f"workload:{self.name}")
        self.metrics = RunMetrics()
        self._make_clients(binding)

    def _make_clients(self, binding: ClusterBinding) -> None:
        first = binding.first_client_id
        for k in range(self.num_clients):
            site = self._site_of(k, binding)
            binding.place_client(first + k, site)
            self.clients.append(
                WorkloadClient(first + k, binding, self.metrics, self._on_complete)
            )

    def use_metrics(self, metrics: Observer) -> None:
        """Swap the observer every client records into; must run before
        any request completes (a rebind starts over with an exact one)."""
        self.metrics = metrics
        for client in self.clients:
            client.use_metrics(metrics)

    def _site_of(self, k: int, binding: ClusterBinding) -> Optional[int]:
        if self.sites is not None:
            return self.sites[k % len(self.sites)]
        # Multi-client workloads spread clients across replica cities;
        # a single client keeps the cluster's default observer city.
        return k % binding.n if self.num_clients > 1 else None

    def start(self) -> None:
        self.running = True

    def stop(self) -> None:
        self.running = False

    def _on_complete(self, client: WorkloadClient) -> None:
        """Hook called when one of ``client``'s requests completes (a
        bound method, so it pickles with the clients that hold it)."""

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def sent(self) -> int:
        return sum(client.sent for client in self.clients)

    @property
    def completed(self) -> int:
        return sum(client.completed for client in self.clients)

    def summary(self) -> Dict[str, float]:
        out = {"requests_sent": self.sent, "requests_completed": self.completed}
        stats = self.metrics.latency_summary()
        if stats is not None:
            out.update(
                mean_latency=stats["mean"],
                p50_latency=stats["p50"],
                p90_latency=stats["p90"],
                p99_latency=stats["p99"],
            )
        return out
