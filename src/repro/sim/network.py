"""Simulated message network with per-link latencies.

Messages between registered nodes are delivered as simulator events after a
one-way delay read from the cluster's delay provider
(:class:`repro.net.latency_model.DelayProvider`, which answers replicas
and clients alike from one latency model).  Faults are injected
through *interceptors*: callables that may drop, delay or rewrite a message
before it is scheduled for delivery.  This is how the Byzantine behaviours
in :mod:`repro.faults` manipulate traffic without touching protocol code.

Fast paths: two predicates, recomputed on each topology/interceptor
mutation.  ``_links_clear`` (no down node, no partition): nothing can be
unreachable, so sends and deliveries skip the down/partition checks.
``_pristine`` (``_links_clear`` and no interceptor): nothing can drop,
delay or rewrite a message, so a wide multicast may park in the store.
Every fan-out -- a multicast in any fault state, a client's request
broadcast -- runs one per-destination loop (:meth:`Network.fan_out`)
that hoists the per-call work and skips what the predicates rule out.
Installing a fault mid-run re-enables the checks, including for
messages already in flight, which re-validate at delivery time.  Every
path draws in the same order (delay, jitter, interceptors, stats, seq),
so seeded runs are bit-identical whichever one a message takes.

Message plane
-------------
A pending delivery waits in one of two places, and the network picks by
what it can observe about the send.

*The event heap.*  ``send()``, ``fan_out()`` (narrow or non-pristine
multicasts, client broadcasts) and zero-delay self copies push one
``(time, seq, None, _deliver, (src, dst, message))`` entry each.

*The wide-row store* (:class:`_FastSpine`: ~20-byte array rows, a sorted
prefix plus an O(1) append tail).  A pristine multicast with
``len(dsts) >= Network.block_fanout`` over a provider whose
``delay_floor()`` is positive parks its cross-node rows there, their
delays gathered from the provider's float64 row (``row_array``); one armed
heap *cursor* stands for the earliest of them.  Every row keeps exactly
the ``(time, seq)`` key its heap entry would have had -- the same jitter
draws in the same order, the same consecutive seq numbers -- so
delivering rows and heap entries in key order *is* the heap-only pop
order, and seeded runs are bit-identical whatever the threshold.

The store is drained in *windows* (:meth:`Network._drain_store`).  A cut
takes every stored row below ``min(barrier, earliest pending time +
delay_floor)``, sorts that window once, unboxes it to flat lists once
and gathers its rows' handlers from the handler table once
(:meth:`Network._window_handlers`), so each row costs a time store, a
call and a head check.  The window invariant makes re-merging
unnecessary: whatever is sent while a window is delivered is sent at or
after the window's start and travels at least the floor (jitter only
stretches a delay; float addition is monotone), so it lands at or past
the window end, with a fresh larger seq.  What can still land inside a
window sits in the heap, and the drain merges the window against the
heap's head:

1. A head that is a pending delivery within the horizon is *merged*:
   popped and delivered inline when it is next in ``(time, seq)`` order
   and below the window's cap.  It is not a barrier -- that would split
   a window at every unicast -- and it does not count as an engine
   event.
2. While such a head is pending, the next window starts at
   ``min(store's earliest, head time)``: the head's handler parks rows a
   floor after *it*.
3. Past the cap, or once rows were parked since the last cut, the next
   window is cut before the head is looked at again.
4. When nothing is stored the drain ends: nothing is popped inline
   without a window to protect.
5. Any other head -- a timer, a stale cursor, an entry past the horizon
   -- is the *barrier*: window rows behind it are *put back* on the
   store's append tail, and the drain yields to the engine there.

A handler that registers a node or changes the fault state drops the
handler table, which ends the run of rows after its own: the rest of
the window is re-gathered under the new routes, or -- while a fault is
live -- delivered through ``_deliver``'s per-row checks.
"""

from __future__ import annotations

from bisect import bisect_right as _bisect_right
from heapq import heappop as _heappop, heappush as _heappush
from itertools import count as _count, repeat as _repeat, starmap as _starmap
from operator import itemgetter as _itemgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Optional

import numpy as np

from repro.sim.engine import SimulationError, Simulator

if TYPE_CHECKING:
    from repro.net.latency_model import DelayProvider

# An interceptor receives (src, dst, message, delay) and returns either
# None (drop the message) or a (message, delay) pair to use instead.
Interceptor = Callable[[int, int, Any, float], Optional[tuple]]

#: Sentinel distinguishing "class not yet resolved" from "resolved to no
#: handler" in a registered dispatch cache (see Network.register_dispatch).
_UNRESOLVED = object()

#: Barrier seq used when the horizon (not a heap event) bounds a drain:
#: rows at exactly the horizon time always pass the tie-break.
_INF = float("inf")


def _key_order(times: Any, seqs: Any) -> Any:
    """Permutation putting rows into ``(time, seq)`` order.

    numpy's default (unstable) sort on the times alone is several times
    faster than ``lexsort`` and gives the same, unique answer whenever
    no two times are equal -- the rule under jitter; ties (jitter-free
    runs) fall back to the two-key sort.
    """
    order = np.argsort(times)
    sorted_times = times[order]
    if (sorted_times[1:] == sorted_times[:-1]).any():
        order = np.lexsort((seqs, times))
    return order


#: Checkpoint row layout of the wide-row store (in memory the columns
#: live as parallel contiguous arrays).  u4 seqs are stored relative to
#: ``_FastSpine.seq_base`` so the column survives multi-billion-event
#: runs; a u4 dst covers any deployment we can fit in memory, and the
#: u4 ``msg`` is the row's slot in the shared message pool (a
#: multicast's whole fanout shares one).
_FAST_DTYPE = np.dtype(
    [("time", "f8"), ("seq", "u4"), ("dst", "u4"), ("msg", "u4")]
)
_FAST_COLUMNS = ("times", "seqs", "dsts", "msgs")

#: A store holding at most this many rows is *sparse*: a lone fanout in
#: flight (a HotStuff proposal, PBFT's PrePrepare) puts a handful of
#: rows in each delay-floor window, and a cut costs ~30 us of numpy
#: calls however few it yields.  See ``Network._drain_store``.
_SPARSE_ROWS = 4096

#: Relative-seq ceiling that triggers a rebase of the store's seq
#: column (leaves ~1M headroom below the u4 limit for in-flight appends).
_FAST_SEQ_LIMIT = 0xFFF00000


class _FastSpine:
    """The wide-row store: the pending rows of pristine wide multicasts
    as ~20-byte array rows.

    In memory the rows are four parallel arrays (``times`` f8, ``seqs``
    / ``dsts`` / ``msgs`` u4) -- parallel rather than one structured
    array so every hot drain op (searchsorted, min, masks, sorts) runs
    on contiguous memory instead of re-copying a strided field view;
    checkpoints still serialize the packed :data:`_FAST_DTYPE` rows.
    What a whole fanout shares is stored once per *pool slot*: ``pool``
    holds the message objects the ``msgs`` column indexes, ``slot_srcs``
    their senders and ``slot_cls`` their classes' indices in ``classes``
    (message class -> index, in first-parked order), the row coordinate
    of :attr:`Network._table`.

    Each column is split in three: ``[:lo]`` is the dead front (already
    delivered; reclaimed by :meth:`grow` and :meth:`settle`),
    ``[lo:sorted_end]`` is the *prefix* -- sorted by ``(time, seq)`` --
    and ``[sorted_end:count]`` is the unsorted *append tail* the send
    paths push onto in O(1).  :meth:`cut` consumes the prefix by
    advancing ``lo`` (a searchsorted cut, never a scan of the backlog)
    and the tail by a mask over its rows, folding the tail into the
    prefix only when it has grown to a fraction of the live region:
    amortized ``O(log)`` sorts per row.

    ``seq_base`` is the absolute seq the relative u4 ``seqs`` column is
    anchored at.  ``armed`` is the key of the row the live heap cursor
    is responsible for -- the store's earliest -- or ``None`` when it is
    empty; ``live`` holds the keys of every cursor currently in the
    heap, so a drain that re-arms at a key whose cursor is still queued
    does not push a duplicate (two heap tuples with equal ``(time,
    seq)`` would make the heap compare callbacks).  A cursor that fires
    when ``armed`` moved on is stale and returns immediately.
    """

    __slots__ = (
        "times", "seqs", "dsts", "msgs", "count", "pool", "slot_srcs",
        "slot_cls", "classes", "armed", "live", "seq_base", "lo",
        "sorted_end",
    )

    def __init__(self):
        self.times = np.empty(1024, dtype=np.float64)
        self.seqs = np.empty(1024, dtype=np.uint32)
        self.dsts = np.empty(1024, dtype=np.uint32)
        self.msgs = np.empty(1024, dtype=np.uint32)
        self.count = 0
        self.pool: list = []
        self.slot_srcs = np.empty(64, dtype=np.uint32)
        self.slot_cls = np.empty(64, dtype=np.uint32)
        self.classes: Dict[type, int] = {}
        self.armed: Optional[tuple] = None
        self.live: set = set()
        self.seq_base = 0
        self.lo = 0
        self.sorted_end = 0

    def grow(self, extra: int) -> int:
        """Make room for ``extra`` more rows; returns the new ``count``.

        The dead front is reclaimed first (the live region moves to
        index 0) and the columns are reallocated only when that leaves
        under an eighth of headroom -- then at 1.25x the need, one
        column at a time, so capacity tracks the live backlog instead
        of doubling over rows that are already delivered.
        """
        lo = self.lo
        count = self.count
        live = count - lo
        need = live + extra
        cap = len(self.times)
        realloc = need + (need >> 3) > cap
        if realloc:
            cap = need + (need >> 2)
        for name in _FAST_COLUMNS:
            old = getattr(self, name)
            if realloc:
                col = np.empty(cap, dtype=old.dtype)
                col[:live] = old[lo:count]
                setattr(self, name, col)
            elif lo:
                old[:live] = old[lo:count]
        self.lo = 0
        self.sorted_end -= lo
        self.count = live
        return live

    def add_slot(self, message: Any, src: int) -> int:
        """Intern ``message`` (one slot serves a whole fanout)."""
        pool = self.pool
        slot = len(pool)
        if slot == len(self.slot_srcs):
            pad = np.empty(slot, dtype=np.uint32)
            self.slot_srcs = np.concatenate((self.slot_srcs, pad))
            self.slot_cls = np.concatenate((self.slot_cls, pad))
        classes = self.classes
        cls = message.__class__
        index = classes.get(cls)
        if index is None:
            index = classes[cls] = len(classes)
        self.slot_srcs[slot] = src
        self.slot_cls[slot] = index
        pool.append(message)
        return slot

    def rebase(self, next_seq: int) -> None:
        """Re-anchor the relative seq column at its lowest live seq."""
        if self.count > self.lo:
            seqs = self.seqs[self.lo : self.count]
            low = int(seqs.min())
            seqs -= np.uint32(low)
            self.seq_base += low
        else:
            self.seq_base = next_seq

    def cut(self, bt: float, bs: float, floor: float, counters: dict,
            start: float = _INF) -> tuple:
        """Remove every row whose key precedes the barrier ``(bt, bs)``,
        the barrier first capped at the *window end*: the earliest
        pending time -- of the store or ``start``, the caller's other
        pending work -- plus ``floor`` (the module docstring has the
        invariant this buys).  ``floor=inf`` leaves only the barrier.

        Returns ``(bt, bs, tail_hits, times, seqs, dsts, msgs)``: the
        effective barrier, and the cut rows' columns -- the prefix rows
        in ``(time, seq)`` order, then ``tail_hits`` tail rows in no
        order -- or ``None`` columns when nothing precedes it.  The
        columns may be views: consume them before the next append.
        """
        lo = self.lo
        se = self.sorted_end
        count = self.count
        times = self.times
        seqs = self.seqs
        if count - se > ((count - lo) >> 1) + 4096:
            # Fold the append tail into the sorted prefix once it passes
            # a fraction of the live region: amortized O(log) sorts per
            # row, so the work below never scans the backlog -- only the
            # tail and the delivered cut.
            order = _key_order(times[lo:count], seqs[lo:count])
            for name in _FAST_COLUMNS:
                col = getattr(self, name)
                col[lo:count] = col[lo:count][order]
            se = self.sorted_end = count
            counters["tail_folds"] += 1
        pn = se - lo
        tn = count - se
        ptimes = times[lo:se]
        ttimes = times[se:count]
        if floor < _INF:
            # The earliest pending time is the prefix head (sorted) vs a
            # scan of the small tail.  Edge ties are safe: in-window
            # arrivals at the window end carry strictly larger seqs.
            if pn and ptimes[0] < start:
                start = ptimes[0]
            if tn:
                tmin = ttimes.min()
                if tmin < start:
                    start = tmin
            window = float(start) + floor
            if window < bt:
                bt = window
                bs = _INF
        # Prefix cut: one searchsorted against the (time, seq)-sorted
        # prefix, extended across time == bt ties by relative seq when
        # the barrier seq is finite.
        kcut = 0
        if pn:
            if bs == _INF:
                kcut = int(np.searchsorted(ptimes, bt, side="right"))
            else:
                kcut = int(np.searchsorted(ptimes, bt, side="left"))
                if kcut < pn and ptimes[kcut] == bt:
                    bs_rel = bs - self.seq_base
                    pseqs = seqs[lo:se]
                    while (
                        kcut < pn
                        and ptimes[kcut] == bt
                        and int(pseqs[kcut]) < bs_rel
                    ):
                        kcut += 1
        # Tail cut: boolean mask over the unsorted tail only.
        nt = 0
        if tn:
            tsel = ttimes < bt
            ties = ttimes == bt
            if ties.any():
                tsel |= ties & (seqs[se:count] < (bs - self.seq_base))
            nt = int(np.count_nonzero(tsel))
        if not kcut and not nt:
            return (bt, bs, 0, None, None, None, None)
        self.lo = hi = lo + kcut
        columns = [times, seqs, self.dsts, self.msgs]
        if not nt:
            return (bt, bs, 0, *(col[lo:hi] for col in columns))
        tidx = np.flatnonzero(tsel) + se
        out = [
            np.concatenate((col[lo:hi], col[tidx])) if kcut else col[tidx]
            for col in columns
        ]
        # Swap-fill the selected tail holes from the tail's end --
        # O(selected) instead of O(tail), legal because the tail is
        # unsorted so row order within it is free.  Only after the cut
        # columns above are gathered, since the movers overwrite
        # selected positions.
        new_count = count - nt
        holes = tidx[tidx < new_count]
        if len(holes):
            movers = np.flatnonzero(~tsel[new_count - se :]) + new_count
            for col in columns:
                col[holes] = col[movers]
        self.count = new_count
        return (bt, bs, nt, *out)

    def put_back(self, window: tuple, lo: int, hi: int, t: float, s: float,
                 counters: dict) -> int:
        """Re-append to the unsorted tail the rows of ``window[lo:hi]``
        -- ``(times, absolute seqs, dsts, msgs)`` in key order, the times
        a list -- whose key exceeds ``(t, s)``; returns the index of the
        first."""
        times, seqs, dsts, msgs = window
        k = _bisect_right(times, t, lo, hi)
        while k > lo and times[k - 1] == t and seqs[k - 1] > s:
            k -= 1
        if k == hi:
            return k
        counters["put_backs"] += 1
        counters["window_rows"] -= hi - k
        low = int(seqs[k:hi].min())
        if low < self.seq_base:
            # A rebase while the rows were out moved the base past them.
            self.seqs[self.lo : self.count] += np.uint32(self.seq_base - low)
            self.seq_base = low
        count = self.count
        if count + hi - k > len(self.times):
            count = self.grow(hi - k)
        need = count + hi - k
        self.times[count:need] = times[k:hi]
        self.seqs[count:need] = np.asarray(seqs[k:hi], dtype=np.int64) - self.seq_base
        self.dsts[count:need] = dsts[k:hi]
        self.msgs[count:need] = msgs[k:hi]
        self.count = need
        return k

    def settle(self, next_seq: int) -> Optional[tuple]:
        """End-of-drain housekeeping.  Returns the earliest pending
        ``(time, seq)`` key, or ``None`` after resetting an empty store."""
        lo = self.lo
        count = self.count
        live_n = count - lo
        if not live_n:
            self.pool.clear()
            self.seq_base = next_seq
            self.lo = self.sorted_end = self.count = 0
            return None
        pool = self.pool
        if len(pool) > 2 * live_n + 64:
            # Compact the message pool: delivered slots are dead but
            # keep their objects alive until remapped away.
            msgs = self.msgs[lo:count]
            uniq, inverse = np.unique(msgs, return_inverse=True)
            self.pool = [pool[m] for m in uniq.tolist()]
            self.slot_srcs = self.slot_srcs[uniq]
            self.slot_cls = self.slot_cls[uniq]
            msgs[:] = inverse.astype(np.uint32)
        if lo > live_n and lo > 4096:
            # Shift-to-front once the dead front dominates.
            count = self.grow(0)
            lo = 0
        se = self.sorted_end
        # Earliest pending (time, seq): the prefix head (sorted) vs a
        # min over the small tail.
        if lo < se:
            best_t = float(self.times[lo])
            best_s = int(self.seqs[lo])
        else:
            best_t = _INF
            best_s = -1
        if se < count:
            ttimes = self.times[se:count]
            tmin = float(ttimes.min())
            if tmin <= best_t:
                smin = int(self.seqs[se:count][ttimes == tmin].min())
                if tmin < best_t or smin < best_s:
                    best_t = tmin
                    best_s = smin
        return (best_t, best_s + self.seq_base)

    def __getstate__(self):
        # Checkpoints pack the live rows into the _FAST_DTYPE layout and
        # normalize away the cursor split: restored as an all-tail
        # column the next cut re-sorts.  Delivery order is unaffected --
        # every cut is a selection put into a total order by its drain,
        # independent of the prefix/tail representation.
        lo = self.lo
        count = self.count
        rows = np.empty(count - lo, dtype=_FAST_DTYPE)
        for name, field in zip(_FAST_COLUMNS, _FAST_DTYPE.names):
            rows[field] = getattr(self, name)[lo:count]
        slots = len(self.pool)
        return (
            rows, self.pool, self.armed, self.live, self.seq_base,
            self.slot_srcs[:slots].copy(),
        )

    def __setstate__(self, state):
        rows, pool, self.armed, self.live, self.seq_base, srcs = state
        # Re-interning the pool rebuilds the class indices, which the
        # pickled layout leaves out.
        slots = max(64, len(pool))
        self.slot_srcs = np.empty(slots, dtype=np.uint32)
        self.slot_cls = np.empty(slots, dtype=np.uint32)
        self.pool = []
        self.classes = {}
        for message, src in zip(pool, srcs.tolist()):
            self.add_slot(message, src)
        n = len(rows)
        self.count = n
        self.lo = self.sorted_end = 0
        for name, field in zip(_FAST_COLUMNS, _FAST_DTYPE.names):
            col = np.empty(max(1024, n + (n >> 2)), dtype=_FAST_DTYPE[field])
            col[:n] = rows[field]
            setattr(self, name, col)


_PLANE_COUNTERS = (
    "windows", "window_rows", "merged_rows", "tail_folds", "put_backs",
    "fault_fallbacks",
)


class NetworkStats:
    """Counters kept by the network for overhead accounting (Fig. 13).

    ``messages_sent``/``bytes_sent``/``per_type_bytes`` count only traffic
    actually put on the wire: a message dropped at send time (down node,
    partition, interceptor drop) increments ``messages_dropped`` alone, so
    fault scenarios do not inflate the overhead accounting.
    ``messages_multicast`` counts replica :meth:`Network.multicast` calls
    (each still counts one ``messages_sent`` per destination); client
    request broadcasts (:meth:`Network.fan_out`) count none.

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
        "plane",
    )

    def __init__(self) -> None:
        self.messages_delivered = 0
        self.messages_dropped = 0
        self.messages_multicast = 0
        #: message class -> [messages, bytes], in first-send order.
        self._per_class: Dict[type, list] = {}
        #: What the store's drains did (all zero while nothing parked
        #: there): windows cut and rows delivered from them, heap
        #: deliveries merged inline between those rows, tail folds,
        #: truncated windows and rows that took the delivery-time checks
        #: because a fault landed mid-flight.  Deterministic, but a
        #: property of where rows waited: no heap-vs-store oracle reads
        #: it.
        self.plane: Dict[str, int] = dict.fromkeys(_PLANE_COUNTERS, 0)

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
        The delay provider: a :class:`~repro.net.latency_model.DelayProvider`
        (tests substitute a fake with the same interface).  The network
        reads its scalar call ``(src, dst) -> seconds``, its eager
        ``rows`` (or ``None``), ``row(src)``, ``row_array(src)`` and
        ``delay_floor()``.
    jitter:
        Fractional uniform jitter applied to every delivery; a value of
        0.05 means each delay is multiplied by ``uniform(1.0, 1.05)``.
        Jitter draws come from a dedicated generator so enabling or
        disabling it does not perturb other random streams.
    """

    #: Pristine multicasts with at least this fanout park
    #: their rows in the wide-row store (:class:`_FastSpine`) instead of
    #: pushing one heap entry each -- provided the delay provider's
    #: ``delay_floor()``, which the windowed drain rests on, is
    #: positive.  Width stands in for *density*: a window costs ~30 us
    #: of numpy calls however few rows it yields.  Store / heap-only us
    #: per delivery, same run, threshold forced to 32: pbft 3.46 at
    #: n = 64, 1.28 at 96, 0.89 at 128, 0.44 at 211; hotstuff-rr 1.23 at
    #: 128, 1.15 at 211, 1.08 at 512 -- a lone one-to-all fanout never
    #: pays.  256 stays because the ledger has a workload on each side of
    #: it and none between n = 73 and 512 that could judge another value.
    #: Class-level so tests can lower it (per instance or globally) to
    #: exercise the store at small n, or raise it to ``inf`` for the
    #: heap-only oracle.
    block_fanout: int = 256

    def __init__(
        self,
        sim: Simulator,
        one_way_delay: DelayProvider,
        jitter: float = 0.0,
    ):
        self.sim = sim
        self.one_way_delay = one_way_delay
        self.jitter = jitter
        self._stats = NetworkStats()
        self._fast = _FastSpine()
        self._handlers: Dict[int, Callable[[int, Any], None]] = {}
        #: node id -> its class->bound-handler cache (see
        #: :meth:`register_dispatch`); lets delivery call the terminal
        #: handler directly, skipping the generic inbox dispatch frame.
        self._routes: Dict[int, Dict[type, Optional[Callable]]] = {}
        #: The store's handler table (see :meth:`_window_handlers`):
        #: derived, dropped whenever a route or the fault state changes.
        self._table: Optional[np.ndarray] = None
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
        #: rewrite a message, so it may park in the store.
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
        * ``_delay_rows`` / ``_delay_n`` / ``_delay_floor`` are re-read
          from the restored provider, which rebuilds its rows on load.
        * ``_table`` is a cache of the routes' answers; it is rebuilt at
          the first window after a resume.
        * The store (``_fast``) pickles verbatim: rows hold only plain
          values and messages.  A drain's window never outlives the
          drain call (what it cannot deliver it puts back), so the store
          and the heap are all there is to save.  The drain callback queued in the heap is a plain
          bound method and needs no persistent-id treatment.
        """
        state = self.__dict__.copy()
        for key in (
            "_deliver_bound",
            "_stats_per_class",
            "_delay_rows",
            "_delay_n",
            "_jitter_random",
            "_delay_floor",
            "_table",
        ):
            state.pop(key, None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._jitter_random = self._jitter_rng.random
        self.one_way_delay = self._one_way_delay  # rows and floor
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
    def one_way_delay(self) -> DelayProvider:
        """The delay provider.  Assigning one re-reads what the send
        paths keep of it: the eager rows and the floor."""
        return self._one_way_delay

    @one_way_delay.setter
    def one_way_delay(self, value: DelayProvider) -> None:
        self._one_way_delay = value
        rows = value.rows
        # ``send`` indexes the eager rows for replica pairs and calls the
        # provider for every other pair but a self pair; without rows
        # ``_delay_n`` is 0, so no pair takes the index.
        self._delay_rows = rows
        self._delay_n = len(rows) if rows is not None else 0
        # The drain's window cap rests on this lower bound on every
        # cross-node delay; at 0.0 wide multicasts keep to the heap.
        self._delay_floor = value.delay_floor()

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
        # A drain checks one field per row: a fault landing mid-window
        # drops the table like a route change does.
        self._table = None

    def register(self, node_id: int, handler: Callable[[int, Any], None]) -> None:
        """Register ``handler(src, message)`` as the inbox of ``node_id``."""
        self._handlers[node_id] = handler
        self._table = None

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
        self._table = None

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

    def _partitioned(self, a: int, b: int) -> bool:
        group_a = self._partition_group.get(a)
        group_b = self._partition_group.get(b)
        return group_a is not None and group_b is not None and group_a != group_b

    def add_interceptor(self, interceptor: Interceptor) -> None:
        """Install a fault-injection hook; interceptors run in order."""
        self._interceptors.append(interceptor)
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
        # One path for every fault state, inlined (a call frame per
        # message is measurable).  Draw order is fixed -- delay, jitter,
        # interceptors, stats, seq -- so a message gets the same
        # ``(time, seq)`` key wherever it waits and whether or not idle
        # interceptors are installed.
        n = self._delay_n
        if src < n and dst < n:
            delay = self._delay_rows[src][dst]  # 0.0 on the diagonal
        elif src == dst:
            delay = 0.0
        else:
            delay = self._one_way_delay(src, dst)
        if self._jitter > 0.0:
            delay *= 1.0 + self._jitter_span * self._jitter_random()
        if not pristine:
            for interceptor in self._interceptors:
                result = interceptor(src, dst, message, delay)
                if result is None:
                    self._stats.messages_dropped += 1
                    return
                message, delay = result
            if not delay >= 0:  # NaN fails it too
                raise SimulationError(f"interceptor delay must be >= 0, got {delay!r}")
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
        _heappush(
            queue, (time, seq, None, self._deliver_bound, (src, dst, message))
        )
        if len(queue) > sim.max_queue_depth:
            sim.max_queue_depth = len(queue)

    def multicast(self, src: int, dsts: Iterable[int], message: Any, size: int = 0) -> None:
        """Send the same message to every destination, as one batch that
        matches a loop of :meth:`send` calls destination by destination.
        A wide pristine multicast parks in the store; every other one is
        :meth:`fan_out`."""
        self._stats.messages_multicast += 1
        if self._pristine and self._delay_floor > 0.0:
            # Wide and pristine: the fanout waits in the store.  The
            # choice changes where rows wait, never their keys.
            try:
                wide = len(dsts) >= self.block_fanout  # type: ignore[arg-type]
            except TypeError:
                wide = False  # generator: always the heap
            if wide:
                self._multicast_store(src, dsts, message, size)
                return
        self.fan_out(src, dsts, message, size)

    def fan_out(self, src: int, dsts: Iterable[int], message: Any, size: int = 0) -> None:
        """A loop of :meth:`send` calls in one, whatever the fault state:
        the same checks, delay, jitter draw, interceptors in order,
        stats and seq per destination, with the per-call work hoisted.

        Counts no multicast (client request broadcasts call it directly)
        and pushes to the heap however wide ``dsts`` is.
        """
        pristine = self._pristine
        clear = self._links_clear
        if not pristine:
            interceptors = self._interceptors
            per_class = self._stats_per_class
            if not clear:
                down = self._down
                src_down = src in down
                # An ungrouped sender reaches every group: check it against none.
                groups = self._partition_group if src in self._partition_group else {}
                src_group = groups.get(src)
        jittered = self._jitter > 0.0
        span = self._jitter_span
        rand = self._jitter_random
        deliver = self._deliver_bound
        stats = self._stats
        row = self._one_way_delay.row(src)
        # Simulator.post(), inlined: ``now`` is constant for the batch.
        sim = self.sim
        now = sim.now
        queue = sim._queue
        seq = first = sim._seq
        for dst in dsts:
            if not clear and (
                src_down or dst in down or groups.get(dst, src_group) != src_group
            ):
                stats.messages_dropped += 1
                continue
            delay = 0.0 if src == dst else row[dst]
            if jittered:
                delay *= 1.0 + span * rand()
            copy = message
            if not pristine:
                sim._seq = seq  # an interceptor may schedule
                kept = True
                for interceptor in interceptors:
                    kept = interceptor(src, dst, copy, delay)
                    if kept is None:
                        break
                    copy, delay = kept
                seq = sim._seq
                if kept is None:
                    stats.messages_dropped += 1
                    continue
                if not delay >= 0:  # NaN fails it too
                    raise SimulationError(f"interceptor delay must be >= 0, got {delay!r}")
                # Per message: a rewrite may change the class.
                entry = per_class.get(copy.__class__)
                if entry is None:
                    per_class[copy.__class__] = [1, size]
                else:
                    entry[0] += 1
                    entry[1] += size
            _heappush(queue, (now + delay, seq, None, deliver, (src, dst, copy)))
            seq += 1
        sim._seq = seq
        if len(queue) > sim.max_queue_depth:
            sim.max_queue_depth = len(queue)  # nothing pops meanwhile
        if pristine and seq > first:
            stats.record_multicast(message, size, seq - first)

    # ------------------------------------------------------------------
    # Wide-row store: the drain and the shared multicast
    # ------------------------------------------------------------------
    def _drain_store(self, time: float, seq: int) -> None:
        """Cursor callback: deliver the store's rows in windows, merged
        against the pending deliveries at the head of the event heap
        (the five rules of the module docstring).

        A row or heap delivery is handed over only when no event with a
        smaller ``(time, seq)`` key exists anywhere -- heap, horizon,
        window or store -- which is when a heap-only run would have
        popped exactly it.  ``sim.now`` is advanced to each arrival time
        before its handler runs.

        Every lookup happens once per window: the cut unboxes the rows
        to flat lists and gathers their handlers from the handler table
        (:meth:`_window_handlers`), so a row costs a time store, a call
        and a head check.  A row whose cell is unresolved takes the
        per-row lookup (:meth:`_resolve_row`); a route change or a fault
        landing mid-window drops the table, which ends the run there:
        the rest of the window is re-gathered, or -- while a fault is
        live -- goes through ``_deliver``'s per-row checks.

        The heap head is snapshotted once and re-read only when a
        delivery changed it -- handlers push but never pop, so the head
        object's identity is a sufficient staleness check.  Everything
        deliverable before the next cut lies below the *cap*
        ``(ct, cs)``: the window end, or the barrier when that comes
        first.

        A *sparse* store (:data:`_SPARSE_ROWS`) is cut up to the barrier
        instead of a floor ahead.  The window invariant then bounds it
        after the fact: the first handler to park rows under it did so
        at ``now``, they land at ``now + floor`` or later, and put-back
        returns what lies beyond.
        """
        store = self._fast
        key = (time, seq)
        live = store.live
        live.discard(key)
        if store.armed != key:
            return  # Stale cursor: an earlier drain already passed this key.
        sim = self.sim
        queue = sim._queue
        horizon = sim.horizon
        floor = self._delay_floor
        deliver = self._deliver_bound
        stats = self._stats
        counters = stats.plane
        unresolved = _UNRESOLVED
        merged = fallbacks = 0
        # The live window (parallel lists, cursor ``wi``, end ``wn``),
        # its rows' class indices and their handlers from ``table``.
        wt = ws = wd = wsrc = wslot = wm = wh = ()
        wcls = table = None
        wi = wn = 0
        ct = cs = -_INF
        sparse = False
        # Handlers park wide multicasts one pool slot at a time, so the
        # pool's length is the monotone "the store grew" signal (its row
        # count is not: appends reclaim the dead front).
        pool = store.pool
        parked = len(pool)
        while True:
            # Head snapshot, cancelled timers cleared (the run loop would
            # discard them anyway; yielding to one wastes a re-arm).
            head = sim._next_pending()
            # A pending delivery merges (``ht``/``hs`` its key, and only
            # the horizon bounds the cut: what hides behind it in the
            # heap surfaces, and bars, once it is popped); anything else
            # is the barrier.
            bt = horizon
            bs = ht = hs = _INF
            if head is not None and head[0] <= horizon:
                if head[3] is deliver:
                    ht = head[0]
                    hs = head[1]
                else:
                    bt = head[0]
                    bs = head[1]
            if wi < wn and (bt < ct or (bt == ct and bs < cs)):
                # A timer now leads the heap from inside the window:
                # rows behind it return to the store's tail.
                ct = bt
                cs = bs
                wn = store.put_back((wt, ws, wd, wslot), wi, wn, bt, bs, counters)
            if sparse and len(pool) != parked:
                # A handler parked rows under a barrier-wide window:
                # they land a floor past its ``now`` at the earliest,
                # so the window ends there and the rest goes back.
                sparse = False
                if sim.now + floor < ct:
                    ct = sim.now + floor
                    cs = _INF
                    wn = store.put_back((wt, ws, wd, wslot), wi, wn, ct, cs, counters)
            if wi == wn:
                if store.count == store.lo:
                    break  # Nothing stored: the heap is the engine's again.
                if ht == _INF and ct == bt and cs == bs:
                    break  # Everything before the barrier is delivered.
                if ht > ct or (ht == ct and hs >= cs) or len(pool) != parked:
                    # Past the cap, or rows were parked since the last
                    # cut (they may tie with the cap's instant): cut the
                    # next window before looking at the head again.
                    sparse = store.count - store.lo <= _SPARSE_ROWS
                    ct, cs, hits, c_times, c_seqs, c_dsts, c_msgs = store.cut(
                        bt, bs, _INF if sparse else floor, counters, ht
                    )
                    parked = len(pool)
                    if c_times is not None:
                        if hits:
                            order = _key_order(c_times, c_seqs)
                            c_times = c_times[order]
                            c_seqs = c_seqs[order]
                            c_dsts = c_dsts[order]
                            c_msgs = c_msgs[order]
                        # Only times and the row loop's columns are
                        # unboxed; seqs and dsts stay arrays (a copy: the
                        # cut may hand out views of the store's columns).
                        wt = c_times.tolist()
                        ws = c_seqs.astype(np.int64) + store.seq_base
                        wd = c_dsts.copy()
                        wsrc = store.slot_srcs[c_msgs].tolist()
                        wslot = c_msgs.tolist()
                        wn = len(wt)
                        # One C call; for a single key itemgetter
                        # answers the bare item, not a tuple.
                        wm = _itemgetter(*wslot)(pool) if wn > 1 else [pool[wslot[0]]]
                        wcls = store.slot_cls[c_msgs]
                        table, wh = self._window_handlers(wcls, c_dsts)
                        wi = 0
                        counters["windows"] += 1
                        counters["window_rows"] += wn
                    continue
            # ---- window run: up to the pending delivery's key ----
            k = wn
            if ht < _INF:
                k = _bisect_right(wt, ht, wi, wn)
                while k > wi and wt[k - 1] == ht and ws[k - 1] > hs:
                    k -= 1
            if k > wi:
                if not self._pristine:
                    # A fault landed while rows were parked: per-row
                    # delivery-time checks, exactly the heap path's.
                    for wi, t, dst, src, message in zip(
                        _count(wi + 1), wt[wi:k], wd[wi:k].tolist(), wsrc[wi:k],
                        wm[wi:k],
                    ):
                        sim.now = t
                        deliver(src, dst, message)
                        fallbacks += 1
                        if (queue and queue[0] is not head) or self._pristine or (
                            sparse and len(pool) != parked
                        ):
                            break
                    continue
                if self._table is not table:
                    # Dropped since the window was gathered.
                    table, wh = self._window_handlers(wcls, wd)
                first = wi
                dropped = 0
                for wi, t, handler, src, message in zip(
                    _count(wi + 1), wt[wi:k], wh[wi:k], wsrc[wi:k], wm[wi:k]
                ):
                    sim.now = t
                    if handler is unresolved:
                        if not self._resolve_row(int(wd[wi - 1]), src, message):
                            dropped += 1
                            continue  # nothing ran: nothing moved
                    elif handler is not None:
                        handler(src, message)
                    if (queue and queue[0] is not head) or self._table is not table or (
                        sparse and len(pool) != parked
                    ):
                        break
                stats.messages_delivered += wi - first - dropped
                continue
            # ---- the pending delivery is next: merge it inline ----
            _heappop(queue)
            sim.now = ht
            deliver(*head[4])
            merged += 1
        counters["merged_rows"] += merged
        counters["fault_fallbacks"] += fallbacks
        nkey = store.armed = store.settle(sim._seq)
        if nkey is not None and nkey not in live:
            self._arm(nkey)

    def _window_handlers(self, classes: Any, dsts: Any) -> tuple:
        """``(table, handlers)``: the handler table, and the handlers of
        a window's rows gathered from it in one fancy index -- cell
        ``[class index, dst]`` per row (``classes`` from the store's
        ``slot_cls``).

        Cell ``[c, dst]`` holds what ``self._routes[dst].get(cls,
        _UNRESOLVED)`` answered for the store's class ``c`` when the
        table was built (``_UNRESOLVED`` where ``dst`` has no route).  A
        route only ever gains classes, so a resolved cell stays right
        until a ``register*`` call or a fault drops the table.  It is
        rebuilt here when dropped, or when a window holds a class or a
        destination it does not cover yet.
        """
        table = self._table
        if table is not None:
            try:
                return table, table[classes, dsts].tolist()
            except IndexError:
                pass  # a class or destination the table does not cover
        width = int(np.max(dsts)) + 1
        if table is not None:
            width = max(width, table.shape[1])
        store_classes = self._fast.classes
        table = np.empty((len(store_classes), width), dtype=object)
        routes_get = self._routes.get
        for cls, index in store_classes.items():
            row = table[index]
            for dst in range(width):
                route = routes_get(dst)
                row[dst] = (
                    _UNRESOLVED if route is None else route.get(cls, _UNRESOLVED)
                )
        self._table = table
        return table, table[classes, dsts].tolist()

    def _resolve_row(self, dst: int, src: int, message: Any) -> bool:
        """Deliver a row whose table cell is unresolved: the per-row
        lookup, which lets the inbox resolve and cache the class, and
        the route's answer written back into the table once it has one.
        Returns False when ``dst`` has no inbox and the row is dropped.
        """
        route = self._routes.get(dst)
        handler = (
            _UNRESOLVED if route is None else route.get(message.__class__, _UNRESOLVED)
        )
        if handler is _UNRESOLVED:
            handler = self._handlers.get(dst)
            if handler is None:
                self._stats.messages_dropped += 1
                return False
        else:
            self._table[self._fast.classes[message.__class__], dst] = handler
        if handler is not None:
            handler(src, message)
        return True

    def _arm(self, key: tuple) -> None:
        """Push a heap cursor at ``key``, the store's earliest row."""
        store = self._fast
        store.armed = key
        store.live.add(key)
        sim = self.sim
        queue = sim._queue
        _heappush(queue, (key[0], key[1], None, self._drain_store, key))
        if len(queue) > sim.max_queue_depth:
            sim.max_queue_depth = len(queue)

    def _multicast_store(
        self, src: int, dsts: Iterable[int], message: Any, size: int
    ) -> None:
        """Pristine multicast into the wide-row store: append the whole
        fanout as one vectorized segment.

        Delays and jitter draws happen in destination order with the
        same ops as :meth:`fan_out`'s loop, and seqs are the same
        consecutive allocations, so every row carries its heap entry's
        exact ``(time, seq)`` key; the fanout shares one pool slot.
        Delays are gathered from the provider's float64 row
        (``row_array(src)``, built by the latency model) with no list
        round trip.
        Zero-delay self copies (``broadcast(include_self=True)``) never
        enter the store -- they are the one row class that can arrive
        *inside* the window being drained, which the window invariant
        (:meth:`_FastSpine.cut`) rules out.  They go on the heap, where
        the drain merges them.
        """
        jittered = self._jitter > 0.0
        span = self._jitter_span
        rand = self._jitter_random
        row = self._one_way_delay.row_array(src)
        if isinstance(dsts, range):
            dst_arr = np.arange(dsts.start, dsts.stop, dsts.step, dtype=np.uint32)
        else:
            if not isinstance(dsts, (list, tuple)):
                dsts = list(dsts)
            dst_arr = np.asarray(dsts, dtype=np.uint32)
        fanout = len(dst_arr)
        if not fanout:
            return
        self_mask = dst_arr == np.uint32(src)
        nself = int(np.count_nonzero(self_mask))
        # Vectorized delay build: gather from the row, zero the self
        # positions, then apply the jitter multipliers.  The draws happen
        # in the same destination order and each element sees the same
        # scalar op sequence (span*r, 1.0+, delay*) as fan_out's loop, so
        # the times are bit-identical.
        delays = row[dst_arr]
        if nself:
            delays[self_mask] = 0.0
        if jittered:
            draws = np.fromiter(
                _starmap(rand, _repeat((), fanout)), np.float64, fanout
            )
            delays *= 1.0 + span * draws
        sim = self.sim
        first = sim._seq
        sim._seq = first + fanout
        self.stats.record_multicast(message, size, fanout)
        fast = self._fast
        if first + fanout - fast.seq_base >= _FAST_SEQ_LIMIT:
            fast.rebase(first)
        times = sim.now + delays
        rel = first - fast.seq_base
        seqs = np.arange(rel, rel + fanout, dtype=np.uint32)
        if nself:
            keep = ~self_mask
            queue = sim._queue
            for k in np.flatnonzero(self_mask).tolist():
                _heappush(queue, (
                    times.item(k), first + k, None, self._deliver_bound,
                    (src, src, message),
                ))
            if len(queue) > sim.max_queue_depth:
                sim.max_queue_depth = len(queue)
            times = times[keep]
            dst_arr = dst_arr[keep]
            seqs = seqs[keep]
        fanout_k = fanout - nself
        if fanout_k:
            count = fast.count
            if count + fanout_k > len(fast.times):
                count = fast.grow(fanout_k)
            need = count + fanout_k
            fast.times[count:need] = times
            fast.seqs[count:need] = seqs
            fast.dsts[count:need] = dst_arr
            fast.msgs[count:need] = fast.add_slot(message, src)
            fast.count = need
            # argmin returns the first occurrence of the minimum, i.e.
            # the lowest seq among time ties -- exactly the earliest
            # (time, seq).
            kidx = int(np.argmin(times))
            key = (times.item(kidx), seqs.item(kidx) + fast.seq_base)
            if fast.armed is None or key < fast.armed:
                self._arm(key)

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
