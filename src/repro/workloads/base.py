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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

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
        Callback ``(client_id, site_index)`` registering where a client
        lives so the cluster's link-delay function can route its traffic;
        ``site_index=None`` leaves the cluster default (the observer
        city) in place.
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


class ClientSiteRouter:
    """Routes client node ids onto replica cities for link-delay lookup.

    Clusters share this instead of each reimplementing the id-to-site
    mapping: replicas (ids below ``n``) map to themselves, clients map to
    their pinned city (or ``default_site``), and co-located pairs fall
    back to a sub-ms local delay.
    """

    def __init__(self, one_way: Callable[[int, int], float], n: int,
                 default_site: int = 0, local_delay: float = 0.0005):
        if not 0 <= default_site < n:
            # A wrapped index would silently run from another city.
            raise ValueError(
                f"client_city must be a city index in [0, {n}), got {default_site!r}"
            )
        self.one_way = one_way
        self.n = n
        self.default_site = default_site
        self.local_delay = local_delay
        self.sites: Dict[int, int] = {}
        self._derive()

    def _derive(self) -> None:
        """The row caches (see :meth:`row`): derived, never pickled."""
        self._replica_row = getattr(self.one_way, "row", None)
        self._replica_row_array = getattr(self.one_way, "row_array", None)
        self._client_rows: Dict[int, List[float]] = {}

    def __getstate__(self) -> Dict:
        state = self.__dict__.copy()
        del state["_replica_row"], state["_replica_row_array"], state["_client_rows"]
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._derive()

    def place(self, client_id: int, site: Optional[int]) -> None:
        """`place_client` callback for :class:`ClusterBinding`."""
        if site is not None:
            self.sites[client_id] = site % self.n
            self._client_rows.pop(client_id, None)

    def delay(self, a: int, b: int) -> float:
        # Clients map to their site, replicas to themselves.
        n = self.n
        if a >= n:
            a = self.sites.get(a, self.default_site)
        if b >= n:
            b = self.sites.get(b, self.default_site)
        return self.one_way(a, b) or self.local_delay

    # The router is installed as the network's delay provider directly
    # (``network.one_way_delay = router``) so its ``row`` view reaches
    # the fan-out paths.
    __call__ = delay

    def row(self, src: int) -> Optional[List[float]]:
        """``src``'s delays to every replica, for the network's fan-out
        paths: entry ``r`` is exactly ``delay(src, r)``.

        Replica sources forward the underlying provider's row (``None``
        when it serves none): replica multicasts only ever target
        replicas, every distinct replica pair's delay is >= 0.5 ms (the
        ``or local_delay`` floor never fires for them), and the network
        handles ``src == dst`` before row lookup.  Client sources --
        placed or on the default site -- answer a row cached per client
        and built from their site, the co-located replica's entry being
        the ``local_delay`` floor; :meth:`place` drops a client's row.
        """
        n = self.n
        if src < n:
            row_fn = self._replica_row
            return row_fn(src) if row_fn is not None else None
        row = self._client_rows.get(src)
        if row is None:
            site = self.sites.get(src, self.default_site)
            one_way = self.one_way
            local = self.local_delay
            row = [one_way(site, r) or local for r in range(n)]
            self._client_rows[src] = row
        return row

    def row_array(self, src: int) -> Optional[np.ndarray]:
        """:meth:`row` as a float64 array, for the network's store.

        Replica sources forward the underlying provider's
        ``row_array`` (``None`` when it serves none), on :meth:`row`'s
        reasoning; client sources answer ``None``: only replicas
        multicast, so no client row reaches the store.
        """
        row_fn = self._replica_row_array
        if src < self.n and row_fn is not None:
            return row_fn(src)
        return None

    def delay_floor(self) -> float:
        """Lower bound on every delay the router can answer: the
        underlying provider's floor, clamped by the co-located client
        fallback (``or local_delay`` turns any 0.0 into it).  Answers
        0.0 -- "no bound known" -- when the provider has none."""
        fn = getattr(self.one_way, "delay_floor", None)
        if fn is None:
            return 0.0
        floor = fn()
        if floor <= 0.0:
            return 0.0
        return min(floor, self.local_delay)


class WorkloadClient:
    """One client endpoint; supports multiple outstanding requests.

    Latency is measured from request send to the ``replies_needed``-th
    distinct replica reply, as in the paper's closed-loop clients.
    """

    def __init__(
        self,
        client_id: int,
        binding: ClusterBinding,
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
        self.latencies: List[Tuple[float, float]] = []  # (complete_time, latency)
        #: Streaming mode: a callable ``(complete_time, latency)`` that
        #: replaces the list above.
        self._latency_sink: Optional[Callable[[float, float], None]] = None
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
        voters = self._voters.get(message.request_id)
        if voters is None:
            return
        voters.add(src)
        if len(voters) >= self.replies_needed:
            send_time = self._send_times.pop(message.request_id)
            del self._voters[message.request_id]
            self.completed += 1
            now = self.sim.now
            sink = self._latency_sink
            if sink is None:
                self.latencies.append((now, now - send_time))
            else:
                sink(now, now - send_time)
            if self.on_complete is not None:
                self.on_complete(self)

    def latency_series(self, duration: float, bucket: float = 1.0):
        """Mean end-to-end latency per time bucket."""
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for time, latency in self.latencies:
            index = int(time / bucket)
            sums[index] = sums.get(index, 0.0) + latency
            counts[index] = counts.get(index, 0) + 1
        return [
            (index * bucket, sums[index] / counts[index]) for index in sorted(sums)
        ]


class _SketchSink:
    """Streams client completions into a shared sketch (one request per
    completion, so the sketch's block counter doubles as ``completed``).
    A class, not a closure: sinks sit inside the checkpointed object
    graph and must pickle."""

    __slots__ = ("sketch",)

    def __init__(self, sketch):
        self.sketch = sketch

    def __call__(self, complete_time: float, latency: float) -> None:
        self.sketch.observe(complete_time, latency, 1)


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
        #: Shared MetricsSketch when streaming measurement is on.
        self._stream_sketch = None

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
        self._make_clients(binding)

    def _make_clients(self, binding: ClusterBinding) -> None:
        first = binding.first_client_id
        for k in range(self.num_clients):
            site = self._site_of(k, binding)
            binding.place_client(first + k, site)
            client = WorkloadClient(first + k, binding, self._on_complete)
            if self._stream_sketch is not None:
                client._latency_sink = _SketchSink(self._stream_sketch)
            self.clients.append(client)

    def enable_streaming(self, sketch) -> None:
        """Stream client latencies into ``sketch`` instead of the
        per-request list (O(1) client memory).  Applies to existing
        clients and to any created by a later rebind.
        """
        self._stream_sketch = sketch
        for client in self.clients:
            client._latency_sink = _SketchSink(sketch)

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

    def latencies(self) -> List[Tuple[float, float]]:
        """All (complete_time, latency) pairs, merged and time-sorted."""
        merged: List[Tuple[float, float]] = []
        for client in self.clients:
            merged.extend(client.latencies)
        merged.sort()
        return merged

    def summary(self) -> Dict[str, float]:
        out = {"requests_sent": self.sent, "requests_completed": self.completed}
        sketch = self._stream_sketch
        if sketch is not None:
            # Streaming: the exact list was never kept.
            stats = sketch.summary()
            if stats is not None:
                out.update(
                    mean_latency=stats["mean"],
                    p50_latency=stats["p50"],
                    p90_latency=stats["p90"],
                    p99_latency=stats["p99"],
                )
            return out
        values = sorted(latency for _, latency in self.latencies())
        if values:
            out.update(
                mean_latency=sum(values) / len(values),
                p50_latency=percentile(values, 0.50),
                p90_latency=percentile(values, 0.90),
                p99_latency=percentile(values, 0.99),
            )
        return out


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an already-sorted sequence.

    Matches ``numpy.quantile(values, q, method="linear")`` (and
    therefore ``numpy.percentile`` up to its internal ``q*100/100``
    round-trip) bit-for-bit: the virtual index is ``q * (n - 1)`` and the
    interpolation uses numpy's numerically-symmetric lerp (anchored at
    the *upper* order statistic once the fraction reaches 0.5).  ``q``
    outside ``[0, 1]`` clamps to the extremes; an empty input is NaN
    (numpy raises instead -- the callers here treat "no samples" as a
    missing metric, not an error).
    """
    if not sorted_values:
        return float("nan")
    if q <= 0.0:
        return sorted_values[0]
    if q >= 1.0:
        return sorted_values[-1]
    position = q * (len(sorted_values) - 1)
    lower_rank = int(position)
    fraction = position - lower_rank
    lower = sorted_values[lower_rank]
    if fraction == 0.0:
        return lower
    upper = sorted_values[lower_rank + 1]
    span = upper - lower
    if fraction < 0.5:
        return lower + span * fraction
    return upper - span * (1.0 - fraction)
