"""Simulated message network with per-link latencies.

Messages between registered nodes are delivered as simulator events after a
one-way delay drawn from a latency provider (usually a
:class:`repro.net.latency_model.LatencyModel` matrix).  Faults are injected
through *interceptors*: callables that may drop, delay or rewrite a message
before it is scheduled for delivery.  This is how the Byzantine behaviours
in :mod:`repro.faults` manipulate traffic without touching protocol code.

Fast paths: two predicates, recomputed on each topology/interceptor
mutation.  ``_links_clear`` (no down node, no partition): nothing can be
unreachable, so sends and deliveries skip the down/partition checks --
an *interceptor-only* network (a delay, loss or stealth attack with
every node up) never calls ``_partitioned``; its multicasts loop over
``send``.  ``_pristine`` (``_links_clear`` and no interceptor): nothing can
drop, delay or rewrite a message, so the columnar planes may batch it.
Installing a fault mid-run re-enables the checks, including for messages
already in flight, which re-validate at delivery time.  Every path draws
in the same order (delay, jitter, interceptors, stats, seq), so seeded
runs are bit-identical whichever one a message takes.

Message planes
--------------
The network supports two delivery planes (``plane=`` constructor arg):

``object``
    The historical path: one heap entry per message, one delivery
    callback per message.

``columnar``
    The batched path: every pristine delivery -- unicast rows and the
    fanned-out rows of a multicast alike -- lands in ONE globally
    sorted *spine* of ``(arrival_time, seq, src, dst, message)``
    records with a single armed heap *cursor* at its head.  The event
    heap then carries only timers and the cursor, so when the cursor
    fires, a drain loop delivers long runs of consecutive rows while
    their ``(time, seq)`` keys precede every other pending event (and
    the run horizon), handing maximal same-destination same-class runs
    to per-node batch handlers (``handle_<Class>Batch``).  Every row
    keeps exactly the ``(time, seq)`` key the object plane would have
    assigned -- the same jitter draws in the same order, the same
    consecutive seq numbers -- so delivering rows in spine order *is*
    the object plane's heap pop order and seeded runs are bit-identical
    across planes.  The moment a fault makes the network non-pristine,
    new sends take the object path and in-flight rows drain one message
    at a time through the same delivery-time checks as the object
    plane.

``columnar-fast``
    The relaxed campaign path: pending rows live in a *narrow numpy
    structured array* (f8 time, u4 seq/src/dst, u4 message-pool index;
    ~24 bytes/row vs ~170 for the tuple rows) that is appended to in
    O(1) and never kept sorted.  When the cursor fires, the drain
    selects EVERY pending row whose key precedes the next timer
    barrier, groups the selection by destination and hands each
    destination's maximal same-class run to its batch handler in ONE
    call -- even when, on the exact planes, interleaved traffic to
    other destinations would have split the run.  Semantics are
    *documented-equivalent*, not bit-identical: per-row ``(time, seq)``
    keys, jitter draws and seq allocation are exactly the object
    plane's, and no row is ever reordered across a timer barrier, but
    within a barrier window rows are delivered destination-major, so
    ``sim.now`` can step backwards between destination groups and
    per-replica arrival interleavings differ.  Final metrics (commit
    counts, request totals, latency quantiles) agree with ``columnar``
    within the measurement-sketch error bound; ``plane="check-fast"``
    (resolved by the runner, like ``"check"``) asserts exactly that.
    Faults fall back identically to ``columnar``: new sends take the
    object path and in-flight fast rows drain per message through the
    delivery-time checks.
"""

from __future__ import annotations

from bisect import insort as _insort
from heapq import (
    heappop as _heappop,
    heappush as _heappush,
    heapreplace as _heapreplace,
)
from typing import Any, Callable, Dict, Iterable, Optional

import numpy as np

from repro.sim.engine import SimulationError, Simulator

#: Valid values for the ``plane`` knob as seen by scenario plumbing.  The
#: network itself only builds "object", "columnar" or "columnar-fast";
#: "check" and "check-fast" are resolved by the experiment runner into one
#: run per plane plus a comparison (state-trace hashes for "check", final
#: metrics within the sketch error bound for "check-fast"), mirroring
#: ``check_score``/``check_rebuild``.
MESSAGE_PLANES = ("object", "columnar", "columnar-fast", "check", "check-fast")

# An interceptor receives (src, dst, message, delay) and returns either
# None (drop the message) or a (message, delay) pair to use instead.
Interceptor = Callable[[int, int, Any, float], Optional[tuple]]

#: Sentinel distinguishing "class not yet resolved" from "resolved to no
#: handler" in a registered dispatch cache (see Network.register_dispatch).
_UNRESOLVED = object()

#: Barrier seq used when the horizon (not a heap event) bounds a drain:
#: rows at exactly the horizon time always pass the tie-break.
_INF = float("inf")

#: Byte cap on the relaxed multicast path's per-src row-array cache
#: (``Network._delay_row_arrays``).  Keeps every row resident for the
#: n<=2048 scales while bounding the n=4096/8192 memory diet: the cache
#: is cleared wholesale when the next insert would cross the cap.
_ROW_CACHE_BYTES = 64 << 20


def _provider_delay_floor(provider: Any) -> float:
    """Smallest positive cross-node delay ``provider`` can ever answer.

    Resolved by duck-typing a ``delay_floor()`` method (the latency
    providers in :mod:`repro.net` and the client-site router implement
    it); bare callables answer 0.0, which disables the relaxed drain's
    window cap -- see :meth:`Network._drain_fast` for what that costs in
    equivalence guarantees.
    """
    fn = getattr(provider, "delay_floor", None)
    if fn is None:
        return 0.0
    floor = fn()
    return float(floor) if floor > 0.0 else 0.0


class _SpineBlock:
    """One wide multicast's fanned-out rows in columnar array form.

    The per-row tuples of the scalar spine cost ~170 bytes each; at
    n=4096 a single PBFT broadcast fans out 4095 rows, and the in-flight
    population reaches tens of millions of rows -- multiple GB as
    tuples.  A block keeps the whole fanout as three parallel arrays
    (~24 bytes/row): arrival times (float64), seq numbers (int64) and
    destinations (int64), sorted by ``(time, seq)``; ``src`` and the
    shared ``message`` are stored once.  ``pos`` is the drain cursor
    into the sorted arrays.

    Every value is byte-identical to the tuples it replaces: times are
    ``now + delay`` float64 adds (numpy elementwise == scalar IEEE),
    seqs are the same consecutive allocations, and the stable argsort
    over times reproduces ``(time, seq)`` order because seqs ascend in
    input order.
    """

    __slots__ = ("times", "seqs", "dsts", "src", "message", "pos")

    def __init__(self, times, seqs, dsts, src, message):
        self.times = times
        self.seqs = seqs
        self.dsts = dsts
        self.src = src
        self.message = message
        self.pos = 0


class _Spine:
    """The single global column of pending pristine deliveries.

    ``entries`` is a list of ``(arrival_time, seq, src, dst, message)``
    rows kept sorted by ``(time, seq)`` (seqs are unique, so sort
    comparisons never reach ``src``).  Keeping *all* destinations merged
    in one column -- rather than one column per destination -- is what
    makes the drain loop long: the event heap holds only timers plus one
    cursor for the spine head, so interleaved traffic to different
    destinations no longer breaks a drain into per-row cursor hops.

    ``blocks`` is a heap of ``(head_time, head_seq, _SpineBlock)``
    keyed by each block's first undelivered row; wide multicasts park
    their fanout here instead of merging thousands of tuples into
    ``entries`` (the per-multicast whole-spine re-sort was the n=4096
    wall-clock ceiling).  ``(time, seq)`` keys are globally unique, so
    heap comparisons never reach the block object.

    ``armed`` is the key of the row the live heap cursor is responsible
    for (``None`` when empty); ``live`` holds the keys of every cursor
    currently in the heap, so a drain that re-arms at a key whose cursor
    is still queued does not push a duplicate (two heap tuples with
    equal ``(time, seq)`` would make the heap compare callbacks).  A
    cursor that fires when ``armed`` moved on is stale and returns
    immediately.
    """

    __slots__ = ("entries", "armed", "live", "blocks")

    def __init__(self):
        self.entries: list = []
        self.armed: Optional[tuple] = None
        self.live: set = set()
        self.blocks: list = []

    def __getstate__(self):
        return (self.entries, self.armed, self.live, self.blocks)

    def __setstate__(self, state):
        if len(state) == 3:
            # Pre-block checkpoint: no block heap yet.
            self.entries, self.armed, self.live = state
            self.blocks = []
        else:
            self.entries, self.armed, self.live, self.blocks = state


#: Checkpoint row layout of the relaxed spine (in memory the columns
#: live as parallel contiguous arrays).  u4 seqs are stored relative to
#: ``_FastSpine.seq_base`` so the column survives multi-billion-event
#: runs; u4 src/dst cover any deployment we can fit in memory, and the
#: u4 pool index points into the shared message list (a multicast's
#: whole fanout shares one slot).  ``cls`` is the small-int message
#: class code (``Network._cls_codes``) so the drain finds maximal
#: same-destination same-class runs with one vectorized boundary scan
#: instead of touching every row from Python.
_FAST_DTYPE = np.dtype(
    [
        ("time", "f8"),
        ("seq", "u4"),
        ("src", "u4"),
        ("dst", "u4"),
        ("msg", "u4"),
        ("cls", "u4"),
    ]
)

#: Relative-seq ceiling that triggers a rebase of the fast spine's seq
#: column (leaves ~1M headroom below the u4 limit for in-flight appends).
_FAST_SEQ_LIMIT = 0xFFF00000


class _FastSpine:
    """Pending pristine deliveries of the relaxed ``columnar-fast`` plane.

    In memory the column is six parallel capacity-doubling arrays
    (``times`` f8, ``seqs``/``srcs``/``dsts``/``msgs``/``clss`` u4) --
    parallel rather than one structured array so every hot drain op
    (searchsorted, min, masks, lexsort) runs on contiguous memory
    instead of re-copying a strided field view; checkpoints still
    serialize the packed :data:`_FAST_DTYPE` rows.

    Each column is split in three: ``[:lo]`` is the dead front (already
    delivered, reclaimed by the drain's shift-to-front),
    ``[lo:sorted_end]`` is the *prefix* -- lexsorted by ``(time, seq)``
    -- and ``[sorted_end:count]`` is the unsorted *append tail* the
    send paths push onto in O(1).  The drain consumes the prefix by
    advancing ``lo`` (a searchsorted cut, never a scan of the backlog)
    and the tail by a mask over its few thousand rows, folding the tail
    into the prefix only when it has grown to a fraction of the live
    region -- amortized ``O(log)`` sorts per row instead of the
    O(backlog) selection scan and keep-compaction a flat append-order
    column pays on every pass.

    ``pool`` is the message object list the u4 ``msgs`` column indexes
    into; ``seq_base`` is the absolute seq the relative u4 ``seqs``
    column is anchored at.  ``armed``/``live`` mirror the exact spine's
    cursor bookkeeping (absolute ``(time, seq)`` keys, matching the
    heap entries).
    """

    __slots__ = (
        "times", "seqs", "srcs", "dsts", "msgs", "clss", "count", "pool",
        "armed", "live", "seq_base", "lo", "sorted_end",
    )

    def __init__(self, cap: int = 1024):
        self.times = np.empty(cap, dtype=np.float64)
        self.seqs = np.empty(cap, dtype=np.uint32)
        self.srcs = np.empty(cap, dtype=np.uint32)
        self.dsts = np.empty(cap, dtype=np.uint32)
        self.msgs = np.empty(cap, dtype=np.uint32)
        self.clss = np.empty(cap, dtype=np.uint32)
        self.count = 0
        self.pool: list = []
        self.armed: Optional[tuple] = None
        self.live: set = set()
        self.seq_base = 0
        self.lo = 0
        self.sorted_end = 0

    def grow(self, need: int) -> None:
        cap = len(self.times)
        while cap < need:
            cap *= 2
        count = self.count
        for name in ("times", "seqs", "srcs", "dsts", "msgs", "clss"):
            old = getattr(self, name)
            col = np.empty(cap, dtype=old.dtype)
            col[:count] = old[:count]
            setattr(self, name, col)

    def rebase(self, next_seq: int) -> int:
        """Re-anchor the relative seq column; returns the new base."""
        if self.count > self.lo:
            seqs = self.seqs[self.lo : self.count]
            low = int(seqs.min())
            seqs -= np.uint32(low)
            self.seq_base += low
        else:
            self.seq_base = next_seq
        return self.seq_base

    def __getstate__(self):
        # Checkpoints pack the live rows into the _FAST_DTYPE layout and
        # normalize away the cursor split: restored as an all-tail
        # column the next drain pass re-sorts.  Delivery order is
        # unaffected -- each pass's batch is a selection (window/barrier
        # cut) put into a total (dst, time, seq) order, independent of
        # the prefix/tail representation.
        lo = self.lo
        count = self.count
        rows = np.empty(count - lo, dtype=_FAST_DTYPE)
        rows["time"] = self.times[lo:count]
        rows["seq"] = self.seqs[lo:count]
        rows["src"] = self.srcs[lo:count]
        rows["dst"] = self.dsts[lo:count]
        rows["msg"] = self.msgs[lo:count]
        rows["cls"] = self.clss[lo:count]
        return (rows, self.pool, self.armed, self.live, self.seq_base)

    def __setstate__(self, state):
        rows, self.pool, self.armed, self.live, self.seq_base = state
        n = len(rows)
        cap = 1024
        while cap < n:
            cap *= 2
        self.times = np.empty(cap, dtype=np.float64)
        self.seqs = np.empty(cap, dtype=np.uint32)
        self.srcs = np.empty(cap, dtype=np.uint32)
        self.dsts = np.empty(cap, dtype=np.uint32)
        self.msgs = np.empty(cap, dtype=np.uint32)
        self.clss = np.empty(cap, dtype=np.uint32)
        self.count = n
        self.times[:n] = rows["time"]
        self.seqs[:n] = rows["seq"]
        self.srcs[:n] = rows["src"]
        self.dsts[:n] = rows["dst"]
        self.msgs[:n] = rows["msg"]
        self.clss[:n] = rows["cls"]
        self.lo = 0
        self.sorted_end = 0


class NetworkStats:
    """Counters kept by the network for overhead accounting (Fig. 13).

    ``messages_sent``/``bytes_sent``/``per_type_bytes`` count only traffic
    actually put on the wire: a message dropped at send time (down node,
    partition, interceptor drop) increments ``messages_dropped`` alone, so
    fault scenarios do not inflate the overhead accounting.
    ``messages_multicast`` counts batched :meth:`Network.multicast` calls
    (each of which still counts one ``messages_sent`` per destination).

    Representation: the send path bumps ONE class-keyed ``[count, bytes]``
    accumulator per message; the public totals (``messages_sent``,
    ``bytes_sent``) and the name-keyed ``per_type_bytes`` dict are
    materialized lazily on read.  This replaces the old per-send
    ``type(message).__name__`` string derivation (the satellite fix: the
    name is now derived once per *type* at read time, never on the send
    path) and keeps the per-message cost at a single dict operation.
    """

    __slots__ = (
        "messages_delivered",
        "messages_dropped",
        "messages_multicast",
        "_per_class",
    )

    def __init__(self) -> None:
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_multicast = 0
        #: message class -> [messages, bytes], in first-send order.
        self._per_class: Dict[type, list] = {}

    @property
    def messages_sent(self) -> int:
        return sum(entry[0] for entry in self._per_class.values())

    @property
    def bytes_sent(self) -> int:
        return sum(entry[1] for entry in self._per_class.values())

    @property
    def per_type_bytes(self) -> Dict[str, int]:
        """Bytes per message-type name, in first-send order.

        Materialized on access; distinct classes sharing a ``__name__``
        are summed, matching the historical name-keyed accounting.
        """
        out: Dict[str, int] = {}
        for cls, entry in self._per_class.items():
            name = cls.__name__
            out[name] = out.get(name, 0) + entry[1]
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NetworkStats(sent={self.messages_sent}, "
            f"delivered={self.messages_delivered}, "
            f"dropped={self.messages_dropped}, "
            f"multicast={self.messages_multicast}, bytes={self.bytes_sent})"
        )

    def record_multicast(self, message: Any, size: int, fanout: int) -> None:
        """Count ``fanout`` copies of ``message`` put on the wire."""
        per_class = self._per_class
        cls = message.__class__
        entry = per_class.get(cls)
        if entry is None:
            per_class[cls] = [fanout, size * fanout]
        else:
            entry[0] += fanout
            entry[1] += size * fanout


class Network:
    """Point-to-point network delivering messages over simulated links.

    Parameters
    ----------
    sim:
        The owning simulator.
    one_way_delay:
        Callable ``(src, dst) -> seconds`` giving the one-way link delay.
    jitter:
        Fractional uniform jitter applied to every delivery; a value of
        0.05 means each delay is multiplied by ``uniform(1.0, 1.05)``.
        Jitter draws come from a dedicated generator so enabling or
        disabling it does not perturb other random streams.
    plane:
        ``"object"`` (default), ``"columnar"`` or ``"columnar-fast"`` --
        see the module docstring.  The first two are bit-identical for
        seeded runs; ``columnar-fast`` trades exact per-row interleaving
        for coalesced barrier-window delivery (documented-equivalent
        final metrics).
    """

    #: Pristine columnar multicasts with at least this fanout go into a
    #: :class:`_SpineBlock` instead of merging tuple rows into the spine.
    #: Class-level so tests can lower it (per instance or globally) to
    #: exercise the block path at small n.
    block_fanout: int = 256

    def __init__(
        self,
        sim: Simulator,
        one_way_delay: Callable[[int, int], float],
        jitter: float = 0.0,
        plane: str = "object",
    ):
        if plane not in ("object", "columnar", "columnar-fast"):
            raise ValueError(
                f"unknown message plane {plane!r}; the network builds "
                "'object', 'columnar' or 'columnar-fast' ('check' and "
                "'check-fast' are resolved by the runner)"
            )
        self.sim = sim
        self.plane = plane
        self._columnar = plane in ("columnar", "columnar-fast")
        self._relaxed = plane == "columnar-fast"
        self._delay_rows: Optional[list] = None
        self._delay_row_fn: Optional[Callable[[int], Optional[list]]] = None
        #: src -> float64 row array for the relaxed multicast path; a
        #: byte-capped snapshot cache over the provider's per-src rows
        #: (cleared by the ``one_way_delay`` setter, never pickled).
        self._delay_row_arrays: Dict[int, Any] = {}
        self.one_way_delay = one_way_delay
        self.jitter = jitter
        self._stats = NetworkStats()
        #: Global sorted column of pending columnar deliveries.
        self._spine = _Spine()
        #: Unsorted structured-array column of the relaxed plane.
        self._fast = _FastSpine()
        #: message class -> small-int code for the relaxed column's
        #: ``cls`` field.  Pickled with the network: buffered rows carry
        #: codes, so the mapping must stay consistent across a resume.
        self._cls_codes: Dict[type, int] = {}
        #: node id -> object probed for ``handle_<Class>Batch`` methods.
        self._batch_endpoints: Dict[int, Any] = {}
        #: node id -> class -> batch handler (or None), lazily resolved.
        self._batch_routes: Dict[int, Dict[type, Optional[Callable]]] = {}
        #: ``(cls code << 32) | dst`` -> resolved dispatch tuple for the
        #: relaxed drain's run loop (see ``_resolve_fast_dispatch``).
        #: Pure cache: cleared on every registration change, never
        #: pickled.
        self._fast_dispatch: Dict[int, tuple] = {}
        self._handlers: Dict[int, Callable[[int, Any], None]] = {}
        #: node id -> its class->bound-handler cache (see
        #: :meth:`register_dispatch`); lets delivery call the terminal
        #: handler directly, skipping the generic inbox dispatch frame.
        self._routes: Dict[int, Dict[type, Optional[Callable]]] = {}
        self._interceptors: list[Interceptor] = []
        self._down: set[int] = set()
        #: node id -> partition group; nodes in different groups cannot
        #: exchange messages.  Nodes absent from the map (e.g. clients)
        #: keep full connectivity.
        self._partition_group: Dict[int, int] = {}
        #: Incremented by every partition(); lets a scheduled heal detect
        #: that a newer partition superseded the one it belongs to.
        self._partition_epoch = 0
        #: True while no node is down and no partition exists: sends and
        #: deliveries skip the reachability checks.
        self._links_clear = True
        #: ``_links_clear`` and no interceptor: nothing can drop, delay or
        #: rewrite a message, so the columnar planes may batch it.
        self._pristine = True
        self._jitter_rng = sim.derive_rng("network-jitter")
        self._jitter_random = self._jitter_rng.random
        # Pre-bound hot-path callables and references: attribute and
        # descriptor lookups cost real time at one send + one delivery per
        # simulated message.  The delivery callback is closure-compiled so
        # the stable references (routes, handlers, stats) are locals.
        self._deliver_bound = self._make_deliver()
        self._stats_per_class = self.stats._per_class

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """Drop the derived hot-path fields; they are deterministic
        functions of the rest and the delivery closure cannot pickle.
        (Queued heap entries referencing ``_deliver_bound`` are handled
        by the checkpoint module's persistent-id hooks.)

        Everything else round-trips as-is -- audited per field:

        * ``_links_clear`` / ``_pristine`` are re-derived on load from
          their inputs (``_interceptors``, ``_down``,
          ``_partition_group``), which pickle in the same snapshot; a
          resume therefore re-checks in-flight deliveries exactly as the
          uninterrupted run would.
        * ``_stats_per_class`` is re-pointed at the restored ``_stats``
          accumulator in ``__setstate__`` -- it must never be pickled, or
          the copy would split the send accounting from ``stats``.
        * ``_delay_rows`` / ``_delay_row_fn`` are re-derived from the
          restored provider so a provider without a ``rows`` matrix (or
          ``row()`` view) never resurrects a stale one.
        * The columnar state (``_spine``, ``_batch_endpoints``,
          ``_batch_routes``) pickles verbatim: spine rows hold only
          plain values and messages, and the cached batch handlers are
          bound methods of replicas already in the checkpoint graph, so
          they rebind to the restored replicas on load.  The drain
          callback queued in the heap is a plain bound method
          (``_drain_spine``) and needs no persistent-id treatment.
        """
        state = self.__dict__.copy()
        for key in (
            "_deliver_bound",
            "_stats_per_class",
            "_delay_rows",
            "_delay_row_fn",
            "_jitter_random",
            "_fast_dispatch",
            "_delay_row_arrays",
        ):
            state.pop(key, None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        if "_relaxed" not in state:
            # Checkpoint from before the relaxed plane existed.
            self._relaxed = False
        if "_fast" not in state:
            self._fast = _FastSpine()
        if "_cls_codes" not in state:
            self._cls_codes = {}
        if "_delay_floor" not in state:
            self._delay_floor = (
                _provider_delay_floor(self._one_way_delay)
                if self._relaxed
                else 0.0
            )
        self._jitter_random = self._jitter_rng.random
        self._fast_dispatch = {}
        self._delay_row_arrays = {}
        self._delay_rows = getattr(self._one_way_delay, "rows", None)
        self._delay_row_fn = getattr(self._one_way_delay, "row", None)
        self._deliver_bound = self._make_deliver()
        self._stats_per_class = self._stats._per_class
        self._refresh_fast_path()

    # ------------------------------------------------------------------
    # Stats, delay provider and jitter
    # ------------------------------------------------------------------
    @property
    def stats(self) -> NetworkStats:
        """The network's counters.  Read-only by design: the hot paths
        hold direct references into this object (``_stats_per_class``,
        the delivery closure), so swapping it out would silently split
        the accounting -- attempting to assign raises instead."""
        return self._stats

    @property
    def one_way_delay(self) -> Callable[[int, int], float]:
        return self._one_way_delay

    @one_way_delay.setter
    def one_way_delay(self, value: Callable[[int, int], float]) -> None:
        self._one_way_delay = value
        self._delay_row_arrays.clear()
        # Providers that expose their full matrix (Deployment.one_way)
        # let the send paths index a plain list instead of calling out.
        self._delay_rows = getattr(value, "rows", None)
        # Providers without an eager matrix may still serve one row at a
        # time (``row(src) -> list | None``): the hierarchical substrate
        # and the lazy dense provider synthesize rows on demand, and the
        # client-site router forwards replica rows while answering None
        # for client sources (which need its scalar mapping).
        self._delay_row_fn = getattr(value, "row", None)
        # The relaxed drain's window cap needs a lower bound on every
        # cross-node delay; the exact planes never read it.
        self._delay_floor = (
            _provider_delay_floor(value) if self._relaxed else 0.0
        )

    @property
    def jitter(self) -> float:
        return self._jitter

    @jitter.setter
    def jitter(self, value: float) -> None:
        self._jitter = value
        # Matches random.Random.uniform(1.0, 1.0 + jitter) bit-for-bit:
        # uniform(a, b) computes a + (b - a) * random(), so the span must
        # be the rounded difference, not the raw jitter value.
        self._jitter_span = (1.0 + value) - 1.0

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def _refresh_fast_path(self) -> None:
        self._links_clear = not (self._down or self._partition_group)
        self._pristine = self._links_clear and not self._interceptors

    def register(self, node_id: int, handler: Callable[[int, Any], None]) -> None:
        """Register ``handler(src, message)`` as the inbox of ``node_id``."""
        self._handlers[node_id] = handler
        self._fast_dispatch.clear()

    def register_dispatch(
        self, node_id: int, dispatch: Dict[type, Optional[Callable]]
    ) -> None:
        """Opt-in delivery fast path for ``node_id``.

        ``dispatch`` is a *live* message-class -> bound-handler mapping
        (``None`` meaning "no handler for this class") that the node's
        inbox keeps populated as it resolves classes.  Delivery consults
        it first and calls the terminal handler directly; unknown classes
        fall back to the registered inbox, which resolves and caches them.
        Counting semantics are identical either way: a delivery to a
        registered node counts as delivered even when the class resolves
        to no handler, exactly as the generic inbox behaves.
        """
        self._routes[node_id] = dispatch
        self._fast_dispatch.clear()

    def register_batch_endpoint(self, node_id: int, endpoint: Any) -> None:
        """Columnar-plane opt-in: deliver same-class runs in bulk.

        ``endpoint`` (usually the replica object) is probed lazily for
        ``handle_<ClassName>Batch(srcs, messages, times)`` methods; when
        one exists, the spine drain hands it a maximal run of *two or
        more* consecutive same-class rows bound for this node instead of
        delivering them one at a time.  Single-row runs keep the
        ordinary per-row delivery: a batched class must therefore retain
        an equivalent per-row handler (the object plane needs one
        anyway, and cross-plane bit-identity already demands the two be
        indistinguishable).

        Batch-handler contract (load-bearing for bit-identity):

        * Rows must be processed in order, with ``sim.now`` set to
          ``times[k]`` before row ``k``'s side effects (the drain sets it
          to ``times[0]`` before the call).
        * The handler must return the number of rows consumed, and it
          must stop -- returning ``k + 1`` -- as soon as processing row
          ``k`` sends a message or schedules an event, because those side
          effects may now precede row ``k + 1`` in global event order.
          Rows that only mutate local state may be consumed freely.
        * Returning ``None`` means "all rows consumed" (valid only for
          handlers whose rows never send or schedule).
        """
        self._batch_endpoints[node_id] = endpoint
        self._batch_routes[node_id] = {}
        self._fast_dispatch.clear()

    def unregister(self, node_id: int) -> None:
        self._handlers.pop(node_id, None)
        self._routes.pop(node_id, None)
        self._batch_endpoints.pop(node_id, None)
        self._batch_routes.pop(node_id, None)
        self._fast_dispatch.clear()

    def set_down(self, node_id: int, down: bool = True) -> None:
        """Crash (or revive) a node: messages to and from it are dropped."""
        if down:
            self._down.add(node_id)
        else:
            self._down.discard(node_id)
        self._refresh_fast_path()

    def is_down(self, node_id: int) -> bool:
        return node_id in self._down

    def partition(self, groups: Iterable[Iterable[int]]) -> int:
        """Split the network into isolated ``groups`` of nodes.

        Links inside a group keep working; messages between nodes of
        different groups are dropped -- at send time for new traffic and
        at delivery time for messages already in flight, mirroring the
        node-down semantics.  Unlike :meth:`set_down` the nodes stay
        alive: they keep processing timers and intra-group traffic, which
        is what distinguishes a partition from a crash.

        Nodes not named in any group (clients, late joiners) retain full
        connectivity.  Calling :meth:`partition` again replaces the
        previous partition; :meth:`heal` removes it.

        Returns an epoch token: pass it to :meth:`heal` so a heal
        scheduled for *this* partition becomes a no-op if a newer
        partition has replaced it in the meantime.
        """
        mapping: Dict[int, int] = {}
        for index, group in enumerate(groups):
            for node in group:
                if node in mapping:
                    raise ValueError(f"node {node} appears in two partition groups")
                mapping[node] = index
        self._partition_group = mapping
        self._partition_epoch += 1
        self._refresh_fast_path()
        return self._partition_epoch

    def heal(self, epoch: Optional[int] = None) -> None:
        """Remove the current partition; all links work again.

        With ``epoch`` (from :meth:`partition`), only heal if that
        partition is still the active one -- a later partition survives
        an earlier partition's scheduled heal.
        """
        if epoch is not None and epoch != self._partition_epoch:
            return
        self._partition_group = {}
        self._refresh_fast_path()

    def reachable(self, src: int, dst: int) -> bool:
        """Can a message currently flow ``src`` -> ``dst``?"""
        if src in self._down or dst in self._down:
            return False
        return not self._partitioned(src, dst)

    def _partitioned(self, a: int, b: int) -> bool:
        group_a = self._partition_group.get(a)
        group_b = self._partition_group.get(b)
        return group_a is not None and group_b is not None and group_a != group_b

    def add_interceptor(self, interceptor: Interceptor) -> None:
        """Install a fault-injection hook; interceptors run in order."""
        self._interceptors.append(interceptor)
        self._refresh_fast_path()

    def remove_interceptor(self, interceptor: Interceptor) -> None:
        self._interceptors.remove(interceptor)
        self._refresh_fast_path()

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, message: Any, size: int = 0) -> None:
        """Send ``message`` from ``src`` to ``dst`` after the link delay.

        ``size`` is the serialized size in bytes, used only for statistics.
        Self-delivery is supported with zero latency (plus jitter) because
        protocol code treats the local replica uniformly.

        Only messages that actually reach the wire are counted as sent;
        send-time drops (down endpoint, partition, interceptor) count as
        dropped instead.
        """
        pristine = self._pristine
        if not pristine and not self._links_clear and (
            src in self._down or dst in self._down or self._partitioned(src, dst)
        ):
            self._stats.messages_dropped += 1
            return
        # One path for every plane and fault state, inlined (a call frame
        # per message is measurable).  Draw order is fixed -- delay,
        # jitter, interceptors, stats, seq -- so a message gets the same
        # ``(time, seq)`` key whichever plane carries it and whether or
        # not idle interceptors are installed.
        if src == dst:
            delay = 0.0
        else:
            rows = self._delay_rows
            delay = (
                rows[src][dst] if rows is not None
                else self._one_way_delay(src, dst)
            )
        if self._jitter > 0.0:
            delay *= 1.0 + self._jitter_span * self._jitter_random()
        if not pristine:
            for interceptor in self._interceptors:
                result = interceptor(src, dst, message, delay)
                if result is None:
                    self._stats.messages_dropped += 1
                    return
                message, delay = result
            if delay < 0:
                raise SimulationError(f"cannot post {delay:.6f}s in the past")
        per_class = self._stats_per_class
        cls = message.__class__
        entry = per_class.get(cls)
        if entry is None:
            per_class[cls] = [1, size]
        else:
            entry[0] += 1
            entry[1] += size
        sim = self.sim
        seq = sim._seq
        sim._seq = seq + 1
        time = sim.now + delay
        queue = sim._queue
        if pristine and self._columnar:
            # Columnar pristine unicast: the row goes into the spine
            # instead of the heap.
            if self._relaxed:
                if src == dst:
                    # Zero-delay self rows are delivered inline at
                    # send time: parked in the column they would be
                    # the one row class that can arrive *inside* the
                    # current drain window (everything cross-node is
                    # at least ``_delay_floor`` away), breaking the
                    # per-destination time order the window cap
                    # guarantees.  The seq above is still allocated,
                    # keeping seq alignment with the exact planes.
                    self._deliver_bound(src, dst, message)
                    return
                # Relaxed plane: O(1) append to the structured column
                # (the exact spine pays an O(rows) insort memmove per
                # unicast).
                fast = self._fast
                if seq - fast.seq_base >= _FAST_SEQ_LIMIT:
                    fast.rebase(seq)
                count = fast.count
                if count == len(fast.times):
                    fast.grow(count + 1)
                pool = fast.pool
                codes = self._cls_codes
                code = codes.get(cls)
                if code is None:
                    code = codes[cls] = len(codes)
                fast.times[count] = time
                fast.seqs[count] = seq - fast.seq_base
                fast.srcs[count] = src
                fast.dsts[count] = dst
                fast.msgs[count] = len(pool)
                fast.clss[count] = code
                pool.append(message)
                fast.count = count + 1
                spine, drain = fast, self._drain_fast
            else:
                spine, drain = self._spine, self._drain_spine
                _insort(spine.entries, (time, seq, src, dst, message))
            armed = spine.armed
            if armed is not None and not (
                time < armed[0] or (time == armed[0] and seq < armed[1])
            ):
                return  # the armed cursor already precedes this row
            key = (time, seq)
            spine.armed = key
            spine.live.add(key)
            _heappush(queue, (time, seq, None, drain, key))
        else:
            _heappush(
                queue, (time, seq, None, self._deliver_bound, (src, dst, message))
            )
        if len(queue) > sim.max_queue_depth:
            sim.max_queue_depth = len(queue)

    def multicast(self, src: int, dsts: Iterable[int], message: Any, size: int = 0) -> None:
        """Send the same message to every destination, as one batch.

        On a pristine network the per-destination fault checks and stats
        bookkeeping are hoisted out of the loop; per-destination delays and
        jitter draws are identical (same values, same RNG order) to a loop
        of :meth:`send` calls, so the batch is purely a constant-factor
        optimisation.  On a faulted network it degrades to exactly that
        loop.
        """
        self.stats.messages_multicast += 1
        if not self._pristine:
            for dst in dsts:
                self.send(src, dst, message, size)
            return
        if self._columnar:
            if self._relaxed:
                self._multicast_fast(src, dsts, message, size)
            else:
                self._multicast_columnar(src, dsts, message, size)
            return
        one_way = self._one_way_delay
        jittered = self._jitter > 0.0
        span = self._jitter_span
        rand = self._jitter_random
        deliver = self._deliver_bound
        # When the delay provider exposes its matrix (Deployment.one_way
        # does), index the row directly instead of calling per destination.
        # Row-serving providers (hierarchical substrate, lazy dense,
        # client-site router) answer one row at a time -- or None, which
        # falls back to the scalar loop.
        rows = self._delay_rows
        row = rows[src] if rows is not None else None
        if row is None:
            row_fn = self._delay_row_fn
            if row_fn is not None:
                row = row_fn(src)
        # Simulator.post(), inlined: ``now`` is constant for the batch.
        sim = self.sim
        now = sim.now
        queue = sim._queue
        # Entries keep consecutive seq numbers (nothing else can push
        # while these loops run), so ordering is identical to a loop of
        # send() calls.
        seq = sim._seq
        fanout = 0
        if row is not None:
            for dst in dsts:
                delay = 0.0 if src == dst else row[dst]
                if jittered:
                    delay *= 1.0 + span * rand()
                _heappush(queue, (now + delay, seq, None, deliver, (src, dst, message)))
                seq += 1
                fanout += 1
        else:
            for dst in dsts:
                delay = 0.0 if src == dst else one_way(src, dst)
                if jittered:
                    delay *= 1.0 + span * rand()
                _heappush(queue, (now + delay, seq, None, deliver, (src, dst, message)))
                seq += 1
                fanout += 1
        sim._seq = seq
        if len(queue) > sim.max_queue_depth:
            sim.max_queue_depth = len(queue)
        if fanout:
            self.stats.record_multicast(message, size, fanout)

    # ------------------------------------------------------------------
    # Columnar plane: batched sends and drain loops
    # ------------------------------------------------------------------
    def _multicast_columnar(
        self, src: int, dsts: Iterable[int], message: Any, size: int
    ) -> None:
        """Pristine multicast on the columnar plane: merge the fanned-out
        rows into the spine instead of pushing ``fanout`` heap entries.

        The per-destination loop draws jitter in destination order and
        reserves the same consecutive seq numbers the object plane's
        multicast would have assigned, so each row keeps the object
        plane's exact ``(time, seq)`` key; merging by that key reproduces
        the heap's pop order (seqs are unique, so the order is total).

        Merging mid-drain is safe: every new key exceeds the key of the
        row currently being delivered (times are ``>= now``, seqs are
        fresh), and the spine's already-delivered prefix holds strictly
        smaller keys, so a whole-list sort leaves that prefix -- and the
        drain's index into it -- untouched.
        """
        one_way = self._one_way_delay
        jittered = self._jitter > 0.0
        span = self._jitter_span
        rand = self._jitter_random
        drows = self._delay_rows
        row = drows[src] if drows is not None else None
        if row is None:
            row_fn = self._delay_row_fn
            if row_fn is not None:
                row = row_fn(src)
        sim = self.sim
        now = sim.now
        first = sim._seq
        try:
            sized_fanout = len(dsts)  # type: ignore[arg-type]
        except TypeError:
            sized_fanout = -1  # generator: always the tuple-row path
        if sized_fanout >= self.block_fanout:
            self._multicast_block(
                src, dsts, message, size, row, now, first, jittered, span, rand
            )
            return
        seq = first
        new_rows = []
        append = new_rows.append
        if row is not None:
            for dst in dsts:
                delay = 0.0 if src == dst else row[dst]
                if jittered:
                    delay *= 1.0 + span * rand()
                append((now + delay, seq, src, dst, message))
                seq += 1
        else:
            for dst in dsts:
                delay = 0.0 if src == dst else one_way(src, dst)
                if jittered:
                    delay *= 1.0 + span * rand()
                append((now + delay, seq, src, dst, message))
                seq += 1
        sim._seq = seq
        fanout = seq - first
        if not fanout:
            return
        self.stats.record_multicast(message, size, fanout)
        new_rows.sort()
        spine = self._spine
        entries = spine.entries
        if not entries:
            entries.extend(new_rows)
        elif fanout < 8:
            # Small fanout (Kauri tree hops): per-row insertion beats
            # re-merging the whole spine.
            for r in new_rows:
                _insort(entries, r)
        else:
            # Two sorted runs; timsort merges them in one galloping pass.
            entries.extend(new_rows)
            entries.sort()
        t0 = new_rows[0][0]
        s0 = new_rows[0][1]
        armed = spine.armed
        if armed is None or t0 < armed[0] or (t0 == armed[0] and s0 < armed[1]):
            key = (t0, s0)
            spine.armed = key
            spine.live.add(key)
            queue = sim._queue
            _heappush(queue, (t0, s0, None, self._drain_spine, (t0, s0)))
            if len(queue) > sim.max_queue_depth:
                sim.max_queue_depth = len(queue)

    def _multicast_block(
        self, src, dsts, message, size, row, now, first, jittered, span, rand
    ) -> None:
        """Wide pristine multicast: park the fanout as one
        :class:`_SpineBlock` instead of merging tuple rows.

        Replaces the per-multicast whole-spine re-sort -- O(spine) per
        wide multicast, the n>=1024 wall-clock ceiling -- with an O(f
        log f) sort of this fanout alone, and the ~170-byte tuples with
        ~24-byte array rows.  Delays and jitter draws happen in
        destination order with the same ops as the tuple path, and seqs
        are the same consecutive allocations, so every ``(time, seq,
        src, dst)`` the drain reads back is byte-identical to the rows
        it replaces.
        """
        one_way = self._one_way_delay
        delays = []
        append = delays.append
        if row is not None:
            if jittered:
                for dst in dsts:
                    delay = 0.0 if src == dst else row[dst]
                    append(delay * (1.0 + span * rand()))
            else:
                for dst in dsts:
                    append(0.0 if src == dst else row[dst])
        elif jittered:
            for dst in dsts:
                delay = 0.0 if src == dst else one_way(src, dst)
                append(delay * (1.0 + span * rand()))
        else:
            for dst in dsts:
                append(0.0 if src == dst else one_way(src, dst))
        fanout = len(delays)
        if not fanout:
            return
        sim = self.sim
        sim._seq = first + fanout
        self.stats.record_multicast(message, size, fanout)
        # float64 elementwise add == the scalar ``now + delay`` bitwise;
        # seqs ascend in destination order, so a stable sort on times
        # alone yields exact ``(time, seq)`` order.
        times = now + np.array(delays, dtype=float)
        order = np.argsort(times, kind="stable")
        times = times[order]
        seqs = first + order.astype(np.int64)
        dsts_arr = np.fromiter(dsts, dtype=np.int64, count=fanout)[order]
        block = _SpineBlock(times, seqs, dsts_arr, src, message)
        t0 = times.item(0)
        s0 = seqs.item(0)
        spine = self._spine
        _heappush(spine.blocks, (t0, s0, block))
        armed = spine.armed
        if armed is None or t0 < armed[0] or (t0 == armed[0] and s0 < armed[1]):
            key = (t0, s0)
            spine.armed = key
            spine.live.add(key)
            queue = sim._queue
            _heappush(queue, (t0, s0, None, self._drain_spine, (t0, s0)))
            if len(queue) > sim.max_queue_depth:
                sim.max_queue_depth = len(queue)

    def _drain_spine(self, time: float, seq: int) -> None:
        """Cursor callback for the spine: deliver consecutive rows while
        their keys precede every other pending event, handing maximal
        same-destination same-class runs to batch handlers.

        A row is delivered only when no event with a smaller
        ``(time, seq)`` key exists anywhere (heap, horizon, or a parked
        block) -- at that point the object plane would have popped
        exactly this row next, so delivering it here preserves global
        event order, clock values and seq allocation bit-for-bit.
        ``sim.now`` is advanced to each row's arrival time before its
        handler runs.  When a foreign event intervenes, the cursor
        re-arms at the next undelivered key.

        The barrier (heap head key, capped by the horizon) is
        snapshotted once and revalidated only when delivering a row
        changed the heap head -- handlers push timers but never pop, so
        the head object's identity is a sufficient staleness check.  On
        the columnar plane handler *sends* go back into the spine, not
        the heap, so the snapshot usually survives the whole drain and
        rows inserted mid-drain are picked up in key order by the index
        walk: their fresh seqs place them after the row being delivered
        and before any undelivered row they precede.

        Under one barrier snapshot the drain *alternates* between the
        scalar spine and the block heap: scalar rows run up to the
        leading block's head key, then the leading block runs up to the
        next scalar key, and so on -- a strict two-way merge in
        ``(time, seq)`` order, so interleaving blocks changes nothing
        observable.  A scalar run trusts head identity on the block
        heap (its keys are exact between runs: any block that tightens
        the cap surfaces at ``blocks[0]``); a block run instead watches
        ``len(blocks)``/``len(entries)``, because its own heap key goes
        stale while rows are consumed, so a handler-pushed block or
        scalar insert can precede the remaining rows without ever
        reaching the heap top.
        """
        spine = self._spine
        key = (time, seq)
        live = spine.live
        live.discard(key)
        if spine.armed != key:
            return  # Stale cursor: an earlier drain already passed this key.
        entries = spine.entries
        blocks = spine.blocks
        sim = self.sim
        queue = sim._queue
        horizon = sim.horizon
        routes_get = self._routes.get
        handlers_get = self._handlers.get
        batch_routes_get = self._batch_routes.get
        stats = self._stats
        unresolved = _UNRESOLVED
        i = 0
        done = False
        while not done:
            # Barrier snapshot: clear cancelled timers at the head (the
            # run loop would discard them anyway; yielding to one wastes
            # a re-arm), then cap the head key by the horizon.
            while queue:
                head = queue[0]
                handle = head[2]
                if handle is None or not handle.cancelled:
                    break
                _heappop(queue)
            if queue:
                head = queue[0]
                bt = head[0]
                bs = head[1]
                if bt > horizon:
                    bt = horizon
                    bs = _INF
            else:
                head = None
                bt = horizon
                bs = _INF
            while True:
                # ---- scalar run: up to the leading block's head ----
                btop = blocks[0] if blocks else None
                sbt = bt
                sbs = bs
                capped = False
                if btop is not None:
                    t0 = btop[0]
                    if t0 < sbt or (t0 == sbt and btop[1] < sbs):
                        sbt = t0
                        sbs = btop[1]
                        capped = True
                # 0 = entries exhausted, 1 = hit the cap, 2 = heap head
                # moved (re-snapshot the barrier), 3 = block head moved
                # (re-derive the cap).
                stop = 0
                while i < len(entries):
                    if i >= 256:
                        # Compact the delivered prefix mid-drain.  A long
                        # drain otherwise keeps dead rows in front, which
                        # makes every mid-drain multicast merge (and every
                        # insort bisect) pay for rows that are already
                        # gone.  Only the in-flight suffix moves, so this
                        # is O(1) amortized per delivered row.
                        del entries[:i]
                        i = 0
                    row = entries[i]
                    t = row[0]
                    if t > sbt or (t == sbt and row[1] > sbs):
                        # The cap (block head, foreign event or horizon)
                        # comes first.
                        stop = 1
                        break
                    dst = row[3]
                    if not self._pristine:
                        # A fault landed while rows were in flight: fall
                        # back to per-message delivery-time checks (drops
                        # count exactly as on the object plane).
                        sim.now = t
                        self._deliver_bound(row[2], dst, row[4])
                        i += 1
                        if queue and queue[0] is not head:
                            stop = 2
                            break
                        if blocks and blocks[0] is not btop:
                            stop = 3
                            break
                        continue
                    message = row[4]
                    cls = message.__class__
                    batch_route = batch_routes_get(dst)
                    if batch_route is not None:
                        bh = batch_route.get(cls, unresolved)
                        if bh is unresolved:
                            endpoint = self._batch_endpoints.get(dst)
                            bh = (
                                getattr(
                                    endpoint, "handle_" + cls.__name__ + "Batch", None
                                )
                                if endpoint is not None
                                else None
                            )
                            batch_route[cls] = bh
                        if bh is not None:
                            # Maximal run of same-destination same-class
                            # rows inside the cap, handed over as one
                            # column.
                            j = i + 1
                            total = len(entries)
                            while j < total:
                                r2 = entries[j]
                                t2 = r2[0]
                                if (
                                    r2[3] != dst
                                    or t2 > sbt
                                    or (t2 == sbt and r2[1] > sbs)
                                    or r2[4].__class__ is not cls
                                ):
                                    break
                                j += 1
                            width = j - i
                            if width > 1:
                                sim.now = t
                                times, _seqs, srcs, _dsts, messages = zip(
                                    *entries[i:j]
                                )
                                consumed = bh(srcs, messages, times)
                                if consumed is None:
                                    consumed = width
                                elif consumed < 1:
                                    consumed = 1
                                elif consumed > width:
                                    consumed = width
                                stats.messages_delivered += consumed
                                i += consumed
                                if queue and queue[0] is not head:
                                    stop = 2
                                    break
                                if blocks and blocks[0] is not btop:
                                    stop = 3
                                    break
                                continue
                            # width == 1: the per-row handler below is
                            # cheaper than the column machinery, and every
                            # batched class has one (the object plane
                            # depends on it), with identical semantics by
                            # the batch-handler contract.
                    sim.now = t
                    route = routes_get(dst)
                    if route is not None:
                        handler = route.get(cls, unresolved)
                        if handler is not unresolved:
                            stats.messages_delivered += 1
                            if handler is not None:
                                handler(row[2], message)
                            i += 1
                            if queue and queue[0] is not head:
                                stop = 2
                                break
                            if blocks and blocks[0] is not btop:
                                stop = 3
                                break
                            continue
                    fallback = handlers_get(dst)
                    if fallback is None:
                        stats.messages_dropped += 1
                    else:
                        stats.messages_delivered += 1
                        fallback(row[2], message)
                    i += 1
                    if queue and queue[0] is not head:
                        stop = 2
                        break
                    if blocks and blocks[0] is not btop:
                        stop = 3
                        break
                if stop == 2:
                    break  # Re-snapshot the barrier.
                if stop == 3:
                    continue  # Re-derive the block cap.
                if stop == 1 and not capped:
                    done = True  # True barrier (foreign event/horizon).
                    break
                # Scalar rows are exhausted (stop 0) or the leading block
                # precedes the next row (stop 1, capped): run the block
                # if it still precedes the barrier.
                if btop is None:
                    done = True
                    break
                bt0 = btop[0]
                if bt0 > bt or (bt0 == bt and btop[1] > bs):
                    done = True
                    break
                # ---- block run: up to the next scalar key ----
                block = btop[2]
                btimes = block.times
                bseqs = block.seqs
                bdsts = block.dsts
                bsrc = block.src
                message = block.message
                cls = message.__class__
                pos = block.pos
                end = len(btimes)
                cbt = bt
                cbs = bs
                if i < len(entries):
                    r0 = entries[i]
                    rt = r0[0]
                    if rt < cbt or (rt == cbt and r0[1] < cbs):
                        cbt = rt
                        cbs = r0[1]
                # The block's heap key goes stale as rows are consumed,
                # so head identity cannot spot handler-pushed blocks or
                # scalar inserts; watch the container lengths instead
                # (handlers only ever add).
                nblocks = len(blocks)
                elen = len(entries)
                if nblocks > 1:
                    # Concurrent wide multicasts (PBFT all-to-all)
                    # interleave row-by-row: also stop at the runner-up
                    # block's head -- the smaller of the heap root's two
                    # children.
                    b1 = blocks[1]
                    if nblocks > 2:
                        b2 = blocks[2]
                        if b2[0] < b1[0] or (b2[0] == b1[0] and b2[1] < b1[1]):
                            b1 = b2
                    if b1[0] < cbt or (b1[0] == cbt and b1[1] < cbs):
                        cbt = b1[0]
                        cbs = b1[1]
                requeue = False
                while pos < end:
                    t = btimes.item(pos)
                    s = bseqs.item(pos)
                    if t > cbt or (t == cbt and s > cbs):
                        break
                    dst = bdsts.item(pos)
                    pos += 1
                    sim.now = t
                    if not self._pristine:
                        self._deliver_bound(bsrc, dst, message)
                    else:
                        # Per-row delivery: destinations within one
                        # multicast are distinct, so the batch scan
                        # would only ever find width-1 runs here.
                        delivered = False
                        route = routes_get(dst)
                        if route is not None:
                            handler = route.get(cls, unresolved)
                            if handler is not unresolved:
                                stats.messages_delivered += 1
                                if handler is not None:
                                    handler(bsrc, message)
                                delivered = True
                        if not delivered:
                            fallback = handlers_get(dst)
                            if fallback is None:
                                stats.messages_dropped += 1
                            else:
                                stats.messages_delivered += 1
                                fallback(bsrc, message)
                    if (
                        (queue and queue[0] is not head)
                        or len(blocks) != nblocks
                        or len(entries) != elen
                    ):
                        requeue = queue and queue[0] is not head
                        break
                if pos >= end:
                    _heappop(blocks)
                else:
                    # Re-key the heap entry at the first undelivered row.
                    block.pos = pos
                    _heapreplace(
                        blocks, (btimes.item(pos), bseqs.item(pos), block)
                    )
                if requeue:
                    break  # Re-snapshot the barrier.
                # Otherwise keep alternating under this snapshot.
        if i:
            del entries[:i]
        nkey = None
        if entries:
            r0 = entries[0]
            nkey = (r0[0], r0[1])
        if blocks:
            b0 = blocks[0]
            bkey = (b0[0], b0[1])
            if nkey is None or bkey < nkey:
                nkey = bkey
        if nkey is not None:
            spine.armed = nkey
            if nkey not in live:
                live.add(nkey)
                _heappush(
                    queue, (nkey[0], nkey[1], None, self._drain_spine, nkey)
                )
                if len(queue) > sim.max_queue_depth:
                    sim.max_queue_depth = len(queue)
        else:
            spine.armed = None

    # ------------------------------------------------------------------
    # Relaxed plane: structured-array sends and coalescing drain
    # ------------------------------------------------------------------
    def _multicast_fast(
        self, src: int, dsts: Iterable[int], message: Any, size: int
    ) -> None:
        """Pristine multicast on the relaxed plane: append the whole
        fanout as one vectorized segment of the structured column.

        Delays and jitter draws happen in destination order with the
        same ops as the exact planes, and seqs are the same consecutive
        allocations, so every row carries the object plane's exact
        ``(time, seq)`` key; only the delivery-side interleaving is
        relaxed.  The fanout shares one message-pool slot.  Zero-delay
        self copies (``broadcast(include_self=True)``) are delivered
        inline at send time rather than parked in the column -- they are
        the one row class that can arrive inside the current drain
        window, which would break the per-destination time order the
        window cap guarantees (see ``send``).
        """
        one_way = self._one_way_delay
        jittered = self._jitter > 0.0
        span = self._jitter_span
        rand = self._jitter_random
        drows = self._delay_rows
        row = drows[src] if drows is not None else None
        if row is None:
            row_fn = self._delay_row_fn
            if row_fn is not None:
                row = row_fn(src)
        if not isinstance(dsts, (list, tuple)):
            dsts = list(dsts)
        fanout = len(dsts)
        if not fanout:
            return
        dst_arr = np.asarray(dsts, dtype=np.uint32)
        self_mask = dst_arr == np.uint32(src)
        nself = int(np.count_nonzero(self_mask))
        if row is not None:
            # Vectorized delay build: gather from a float64 snapshot of
            # the provider's row (byte-capped cache -- rows are static
            # for the run), zero the self positions, then apply the
            # jitter multipliers.  The draws happen in the same
            # destination order and each element sees the same scalar
            # op sequence (span*r, 1.0+, delay*) as the exact planes'
            # per-dst loop, so the times are bit-identical.
            cache = self._delay_row_arrays
            arr = cache.get(src)
            if arr is None:
                arr = np.asarray(row, dtype=np.float64)
                if (len(cache) + 1) * arr.nbytes > _ROW_CACHE_BYTES:
                    cache.clear()
                cache[src] = arr
            delays = arr[dst_arr]
            if nself:
                delays[self_mask] = 0.0
            if jittered:
                draws = [rand() for _ in range(fanout)]
                delays *= 1.0 + span * np.asarray(draws, dtype=np.float64)
        else:
            dl = []
            append = dl.append
            if jittered:
                for dst in dsts:
                    delay = 0.0 if src == dst else one_way(src, dst)
                    append(delay * (1.0 + span * rand()))
            else:
                for dst in dsts:
                    append(0.0 if src == dst else one_way(src, dst))
            delays = np.asarray(dl, dtype=np.float64)
        sim = self.sim
        now = sim.now
        first = sim._seq
        sim._seq = first + fanout
        self.stats.record_multicast(message, size, fanout)
        fast = self._fast
        if first + fanout - fast.seq_base >= _FAST_SEQ_LIMIT:
            fast.rebase(first)
        times = now + delays
        if nself:
            keep = ~self_mask
            times_k = times[keep]
            dst_k = dst_arr[keep]
            seqs_k = np.arange(first, first + fanout, dtype=np.int64)[keep]
        else:
            times_k = times
            dst_k = dst_arr
            seqs_k = None
        fanout_k = fanout - nself
        if fanout_k:
            count = fast.count
            need = count + fanout_k
            if need > len(fast.times):
                fast.grow(need)
            fast.times[count:need] = times_k
            if seqs_k is None:
                rel = first - fast.seq_base
                fast.seqs[count:need] = np.arange(
                    rel, rel + fanout, dtype=np.uint32
                )
            else:
                fast.seqs[count:need] = (seqs_k - fast.seq_base).astype(
                    np.uint32
                )
            fast.srcs[count:need] = src
            fast.dsts[count:need] = dst_k
            pool = fast.pool
            fast.msgs[count:need] = len(pool)
            codes = self._cls_codes
            cls = message.__class__
            code = codes.get(cls)
            if code is None:
                code = codes[cls] = len(codes)
            fast.clss[count:need] = code
            pool.append(message)
            fast.count = need
            # argmin returns the first occurrence of the minimum, i.e.
            # the lowest seq among time ties -- exactly the earliest
            # (time, seq).
            kidx = int(np.argmin(times_k))
            t0 = times_k.item(kidx)
            s0 = first + kidx if seqs_k is None else int(seqs_k.item(kidx))
            armed = fast.armed
            if armed is None or t0 < armed[0] or (t0 == armed[0] and s0 < armed[1]):
                key = (t0, s0)
                fast.armed = key
                fast.live.add(key)
                queue = sim._queue
                _heappush(queue, (t0, s0, None, self._drain_fast, (t0, s0)))
                if len(queue) > sim.max_queue_depth:
                    sim.max_queue_depth = len(queue)
        for _ in range(nself):
            self._deliver_bound(src, src, message)

    def _resolve_fast_dispatch(self, dst: int, cls: type, code: int) -> tuple:
        """Resolve (and usually memoize) the relaxed drain's dispatch
        for one ``(dst, message class)`` pair.

        Returns ``(batch_handler, per_row_fn, counted)``:

        * ``batch_handler`` -- the ``handle_<Class>Batch`` method when
          ``dst`` registered a batch endpoint exposing one, else None.
        * ``per_row_fn`` -- the terminal handler from the node's live
          dispatch map when resolved, else its generic inbox, else None.
        * ``counted`` -- False only for unregistered destinations, whose
          rows count as dropped.

        The entry is cached under ``(code << 32) | dst`` (collision-free:
        dst is a u4 column value) and the cache is cleared by every
        ``register*``/``unregister`` call.  One transient case is served
        uncached: a node with a dispatch map that has not resolved this
        class yet.  Its inbox populates the live map on first dispatch,
        so memoizing here would pin the slow inbox path forever -- the
        next run re-resolves and picks up the terminal handler.
        """
        bh = None
        endpoint = self._batch_endpoints.get(dst)
        if endpoint is not None:
            bh = getattr(endpoint, "handle_" + cls.__name__ + "Batch", None)
        route = self._routes.get(dst)
        if route is not None:
            handler = route.get(cls, _UNRESOLVED)
            if handler is not _UNRESOLVED:
                ent = (bh, handler, True)
                self._fast_dispatch[(code << 32) | dst] = ent
                return ent
            fallback = self._handlers.get(dst)
            return (bh, fallback, fallback is not None)
        fallback = self._handlers.get(dst)
        ent = (bh, fallback, fallback is not None)
        self._fast_dispatch[(code << 32) | dst] = ent
        return ent

    def _drain_fast(self, time: float, seq: int) -> None:
        """Cursor callback for the relaxed plane: coalesce EVERY pending
        row that precedes the next timer barrier into destination-major
        batch deliveries.

        Each pass snapshots the barrier (next non-cancelled heap event,
        capped by the horizon), selects all rows with a smaller
        ``(time, seq)`` key, removes them from the column and delivers
        them grouped by destination -- within a destination in
        ``(time, seq)`` order, maximal same-class runs handed to the
        batch handler in one call (re-called on the remainder when it
        consumes partially; the relaxed plane drops the exact planes'
        stop-after-send rule, which is the coalescing win).  Handler
        sends land back in the column and are picked up by the next
        pass if they still precede the barrier.  No row is ever held
        past a barrier: passes repeat until nothing pending precedes
        it.  ``sim.now`` is set to each row's arrival time before its
        side effects, so it can step backwards across destination
        groups -- documented-equivalent, not bit-identical.

        When the delay provider exposes a positive ``delay_floor`` the
        pass window is additionally capped at ``earliest pending row +
        floor``.  Handler sends issued during a pass then always land
        at or past the window end, so each destination observes its
        rows in exact ``(time, seq)`` order and quorum crossings fire
        at the same instants as the exact planes; only cross-destination
        wall interleaving within a window (and same-instant tie order)
        stays relaxed.  With ``floor == 0.0`` (bare-callable providers)
        capping is disabled and only barrier-level equivalence holds.
        """
        fast = self._fast
        key = (time, seq)
        live = fast.live
        live.discard(key)
        if fast.armed != key:
            return  # Stale cursor: an earlier drain already passed this key.
        sim = self.sim
        queue = sim._queue
        horizon = sim.horizon
        dispatch_get = self._fast_dispatch.get
        resolve = self._resolve_fast_dispatch
        stats = self._stats
        floor = self._delay_floor
        while fast.count > fast.lo:
            # Barrier snapshot: clear cancelled timers at the head, then
            # cap the head key by the horizon (rows at exactly the
            # horizon pass the tie-break via the _INF barrier seq).
            while queue:
                head = queue[0]
                handle = head[2]
                if handle is None or not handle.cancelled:
                    break
                _heappop(queue)
            if queue:
                bt = queue[0][0]
                bs = queue[0][1]
                if bt > horizon:
                    bt = horizon
                    bs = _INF
            else:
                bt = horizon
                bs = _INF
            lo = fast.lo
            se = fast.sorted_end
            count = fast.count
            times = fast.times
            seqs = fast.seqs
            live_n = count - lo
            if count - se > (live_n >> 1) + 4096:
                # Fold the append tail into the sorted prefix once it
                # passes a fraction of the live region: amortized O(log)
                # sorts per row, so the per-pass work below never scans
                # the backlog -- only the tail and the delivered cut.
                morder = np.lexsort((seqs[lo:count], times[lo:count]))
                times[lo:count] = times[lo:count][morder]
                seqs[lo:count] = seqs[lo:count][morder]
                for col in (fast.srcs, fast.dsts, fast.msgs, fast.clss):
                    col[lo:count] = col[lo:count][morder]
                se = fast.sorted_end = count
            pn = se - lo
            tn = count - se
            ptimes = times[lo:se]
            ttimes = times[se:count]
            if floor > 0.0:
                # Window cap: never deliver past the earliest pending
                # row plus the provider's delay floor.  Any handler send
                # during this pass happens at >= the window start and
                # travels >= floor, so it lands at or past the window
                # end -- per-destination delivery therefore runs in
                # exact (time, seq) order (edge ties are safe: in-pass
                # arrivals at the window boundary carry strictly larger
                # seqs and go to a later pass).  The earliest pending
                # time is the prefix head (sorted) vs a scan of the
                # small tail.
                tmin = ptimes[0] if pn else _INF
                if tn:
                    tmin2 = ttimes.min()
                    if tmin2 < tmin:
                        tmin = tmin2
                window = float(tmin) + floor
                if window < bt:
                    bt = window
                    bs = _INF
            # Prefix cut: one searchsorted against the (time, seq)-sorted
            # prefix, extended across time == bt ties by relative seq
            # when the barrier seq is finite.
            if pn:
                if bs == _INF:
                    kcut = int(np.searchsorted(ptimes, bt, side="right"))
                else:
                    kcut = int(np.searchsorted(ptimes, bt, side="left"))
                    if kcut < pn and ptimes[kcut] == bt:
                        bs_rel = bs - fast.seq_base
                        pseqs = seqs[lo:se]
                        while (
                            kcut < pn
                            and ptimes[kcut] == bt
                            and int(pseqs[kcut]) < bs_rel
                        ):
                            kcut += 1
            else:
                kcut = 0
            # Tail cut: boolean mask over the unsorted tail only.
            nt = 0
            tsel = None
            if tn:
                tsel = ttimes < bt
                ties = ttimes == bt
                if ties.any():
                    tsel = tsel | (
                        ties & (seqs[se:count] < (bs - fast.seq_base))
                    )
                nt = int(np.count_nonzero(tsel))
            if not kcut and not nt:
                break
            # Row indices of this pass's batch (prefix cut + tail hits),
            # gathered per column; lexsort puts them into the total
            # (dst, time, seq) delivery order.
            if nt:
                tidx = np.flatnonzero(tsel) + se
                if kcut:
                    idx = np.concatenate(
                        (np.arange(lo, lo + kcut, dtype=np.int64), tidx)
                    )
                else:
                    idx = tidx
            else:
                idx = np.arange(lo, lo + kcut, dtype=np.int64)
            fast.lo = lo + kcut
            pool = fast.pool
            btimes = times[idx]
            bdsts = fast.dsts[idx]
            order = np.lexsort((seqs[idx], btimes, bdsts))
            sidx = idx[order]
            total = len(sidx)
            # Maximal same-destination same-class runs are found with one
            # vectorized boundary scan over the (dst, cls) columns; the
            # data columns are converted to Python lists once per pass so
            # the run loop below never pays per-row numpy scalar costs.
            dstcol = bdsts[order]
            clscol = fast.clss[sidx]
            if total > 1:
                change = (dstcol[1:] != dstcol[:-1]) | (
                    clscol[1:] != clscol[:-1]
                )
                edges = [0]
                edges.extend((np.flatnonzero(change) + 1).tolist())
                edges.append(total)
            else:
                edges = [0, total]
            bt_l = btimes[order].tolist()
            bd_l = dstcol.tolist()
            bs_l = fast.srcs[sidx].tolist()
            bm_l = fast.msgs[sidx].tolist()
            cc_l = clscol.tolist()
            if nt:
                # Swap-fill the selected tail holes from the tail's end
                # -- O(selected) instead of O(tail), legal because the
                # tail is unsorted so row order within it is free.  Only
                # after the batch columns above are gathered, since the
                # movers overwrite selected positions.  Handler sends
                # during the delivery below append after the new count.
                new_count = count - nt
                holes = tidx[tidx < new_count]
                if len(holes):
                    movers = (
                        np.flatnonzero(~tsel[new_count - se :]) + new_count
                    )
                    times[holes] = times[movers]
                    seqs[holes] = seqs[movers]
                    for col in (fast.srcs, fast.dsts, fast.msgs, fast.clss):
                        col[holes] = col[movers]
                fast.count = new_count
            # Run dispatch: one int-keyed cache lookup per (dst, cls)
            # run replaces the route/batch-route/getattr resolution
            # chain; stats accumulate in locals and flush once per pass.
            delivered = 0
            dropped = 0
            for ri in range(len(edges) - 1):
                r = edges[ri]
                e = edges[ri + 1]
                dst = bd_l[r]
                if not self._pristine:
                    # A fault landed while rows were in flight: per-row
                    # delivery-time checks, as on the exact planes.
                    for idx in range(r, e):
                        sim.now = bt_l[idx]
                        self._deliver_bound(bs_l[idx], dst, pool[bm_l[idx]])
                    continue
                width = e - r
                ent = dispatch_get((cc_l[r] << 32) | dst)
                if ent is None:
                    ent = resolve(dst, pool[bm_l[r]].__class__, cc_l[r])
                bh = ent[0]
                if bh is not None and width > 1:
                    srcs = bs_l[r:e]
                    messages = [pool[m] for m in bm_l[r:e]]
                    ts = bt_l[r:e]
                    start = 0
                    while start < width:
                        sim.now = ts[start]
                        if start:
                            consumed = bh(
                                srcs[start:], messages[start:], ts[start:]
                            )
                        else:
                            consumed = bh(srcs, messages, ts)
                        if consumed is None:
                            consumed = width - start
                        elif consumed < 1:
                            consumed = 1
                        elif consumed > width - start:
                            consumed = width - start
                        start += consumed
                    delivered += width
                    continue
                fn = ent[1]
                if fn is not None:
                    delivered += width
                    for idx in range(r, e):
                        sim.now = bt_l[idx]
                        fn(bs_l[idx], pool[bm_l[idx]])
                elif ent[2]:
                    delivered += width
                else:
                    dropped += width
            if delivered:
                stats.messages_delivered += delivered
            if dropped:
                stats.messages_dropped += dropped
        lo = fast.lo
        count = fast.count
        if count > lo:
            live_n = count - lo
            pool = fast.pool
            if len(pool) > 2 * live_n + 64:
                # Compact the message pool: delivered slots are dead but
                # keep their objects alive until remapped away.
                msgs = fast.msgs[lo:count]
                uniq, inverse = np.unique(msgs, return_inverse=True)
                fast.pool = [pool[m] for m in uniq.tolist()]
                msgs[:] = inverse.astype(np.uint32)
            if lo > live_n and lo > 4096:
                # Shift-to-front once the dead front dominates, bounding
                # buffer capacity at ~2x the live backlog.
                for col in (
                    fast.times, fast.seqs, fast.srcs, fast.dsts,
                    fast.msgs, fast.clss,
                ):
                    col[:live_n] = col[lo:count].copy()
                fast.lo = 0
                fast.sorted_end -= lo
                fast.count = live_n
                lo = 0
                count = live_n
            se = fast.sorted_end
            # Earliest pending (time, seq): the prefix head (sorted) vs
            # a min over the small tail.
            if lo < se:
                best_t = float(fast.times[lo])
                best_s = int(fast.seqs[lo])
            else:
                best_t = _INF
                best_s = -1
            if se < count:
                ttimes = fast.times[se:count]
                tmin = float(ttimes.min())
                if tmin <= best_t:
                    at_min = ttimes == tmin
                    smin = int(fast.seqs[se:count][at_min].min())
                    if tmin < best_t or smin < best_s:
                        best_t = tmin
                        best_s = smin
            nkey = (best_t, best_s + fast.seq_base)
            fast.armed = nkey
            if nkey not in live:
                live.add(nkey)
                _heappush(
                    queue, (nkey[0], nkey[1], None, self._drain_fast, nkey)
                )
                if len(queue) > sim.max_queue_depth:
                    sim.max_queue_depth = len(queue)
        else:
            fast.armed = None
            fast.pool.clear()
            fast.seq_base = sim._seq
            fast.lo = 0
            fast.sorted_end = 0
            fast.count = 0

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _make_deliver(self) -> Callable[[int, int, Any], None]:
        """Build the delivery callback with hot references as closure
        locals.  ``_routes``/``_handlers``/``stats`` are mutated in place
        and never rebound, so capturing them is safe; the mutable fault
        state (``_links_clear``, down set, partition) is read through
        ``self`` so mid-run changes keep applying to in-flight messages.
        """
        routes_get = self._routes.get
        handlers_get = self._handlers.get
        stats = self.stats

        def _deliver(
            src: int, dst: int, message: Any, _self=self, _unresolved=_UNRESOLVED
        ) -> None:
            if not _self._links_clear and (
                dst in _self._down
                or src in _self._down
                or _self._partitioned(src, dst)
            ):
                stats.messages_dropped += 1
                return
            route = routes_get(dst)
            if route is not None:
                handler = route.get(message.__class__, _unresolved)
                if handler is not _unresolved:
                    stats.messages_delivered += 1
                    if handler is not None:
                        handler(src, message)
                    return
            inbox = handlers_get(dst)
            if inbox is None:
                stats.messages_dropped += 1
                return
            stats.messages_delivered += 1
            inbox(src, message)

        return _deliver

    def _deliver(self, src: int, dst: int, message: Any) -> None:
        """Deliver one message now (the scheduled path uses the prebuilt
        closure; this method is the equivalent public-ish entry point)."""
        self._deliver_bound(src, dst, message)
