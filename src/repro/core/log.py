"""The append-only measurement log (§4, Fig. 1).

The log is OptiLog's central data structure: replicas append authenticated
measurements through the consensus engine, and every replica's monitors
observe the *same committed prefix in the same order*, which is what makes
their derived metrics consistent system-wide.

Two usage modes:

* **Replicated** -- each replica holds its own :class:`AppendOnlyLog`
  instance that the consensus engine feeds in commit order (the consensus
  engines in :mod:`repro.consensus` do this through the sensor app).
* **Standalone** -- analytical experiments (Figs. 8, 10, 12, 14) drive a
  single log directly, bypassing consensus; determinism of the monitors
  guarantees the outcome equals the replicated run with the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import merge as _heap_merge
from operator import attrgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Type

_by_seq = attrgetter("seq")


@dataclass(frozen=True)
class LogEntry:
    """A committed record with its position in the total order."""

    seq: int
    record: Any
    view: int = 0

    @property
    def wire_size(self) -> int:
        # Records are frozen, so the (property-computed, per-record) wire
        # size is a constant -- cache it on first read; the overhead
        # study (Fig. 13) and the append accounting both re-read it.
        cached = self.__dict__.get("_wire_size")
        if cached is None:
            cached = getattr(self.record, "wire_size", 0)
            object.__setattr__(self, "_wire_size", cached)
        return cached


class AppendOnlyLog:
    """Totally-ordered, append-only record log with typed subscriptions.

    Subscribers registered for a record type are notified synchronously,
    in registration order, whenever a record of that type (or a subclass)
    commits.  Monitors rely on this ordering being identical on every
    replica; it is, because it is a pure function of the append order.
    """

    def __init__(self):
        self._entries: List[LogEntry] = []
        self._subscribers: List[tuple] = []  # (record_type, callback)
        #: Exact record type -> its entries, in commit order.  Keeps
        #: :meth:`entries_of_type` from rescanning the whole log.
        self._by_type: Dict[type, List[LogEntry]] = {}
        #: Exact record type -> the subscriber callbacks that match it
        #: (in registration order), precomputed so :meth:`append` does not
        #: re-run isinstance over every subscriber per commit.  Cleared on
        #: :meth:`subscribe` (new matches possible for known types).
        self._dispatch_cache: Dict[type, tuple] = {}
        self.current_view = 0

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    def append(self, record: Any, view: Optional[int] = None) -> LogEntry:
        """Commit ``record`` at the next sequence number and notify."""
        entry = LogEntry(
            seq=len(self._entries),
            record=record,
            view=self.current_view if view is None else view,
        )
        self._entries.append(entry)
        cls = record.__class__
        bucket = self._by_type.get(cls)
        if bucket is None:
            bucket = self._by_type[cls] = []
        bucket.append(entry)
        callbacks = self._dispatch_cache.get(cls)
        if callbacks is None:
            # Snapshot, like the old per-append list(...) copy: a callback
            # that subscribes mid-dispatch affects later appends only.
            callbacks = tuple(
                callback
                for record_type, callback in self._subscribers
                if issubclass(cls, record_type)
            )
            self._dispatch_cache[cls] = callbacks
        for callback in callbacks:
            callback(entry)
        return entry

    def append_many(self, records: List[Any], view: Optional[int] = None) -> List[LogEntry]:
        """Commit a burst of records back-to-back (record gossip flushes,
        catch-up replays).

        Exactly equivalent to one :meth:`append` per record -- same
        sequence numbers, view stamps and per-entry dispatch order (a
        callback that advances the view or subscribes mid-burst affects
        later records, just as with sequential appends) -- with the
        per-call attribute lookups hoisted out of the loop.
        """
        entries = self._entries
        by_type = self._by_type
        dispatch_cache = self._dispatch_cache
        committed: List[LogEntry] = []
        for record in records:
            entry = LogEntry(
                seq=len(entries),
                record=record,
                view=self.current_view if view is None else view,
            )
            entries.append(entry)
            cls = record.__class__
            bucket = by_type.get(cls)
            if bucket is None:
                bucket = by_type[cls] = []
            bucket.append(entry)
            callbacks = dispatch_cache.get(cls)
            if callbacks is None:
                callbacks = tuple(
                    callback
                    for record_type, callback in self._subscribers
                    if issubclass(cls, record_type)
                )
                dispatch_cache[cls] = callbacks
            for callback in callbacks:
                callback(entry)
            committed.append(entry)
        return committed

    def advance_view(self, view: int) -> None:
        """Record a view change; later appends carry the new view number."""
        if view < self.current_view:
            raise ValueError(
                f"view must not go backwards ({view} < {self.current_view})"
            )
        self.current_view = view

    # ------------------------------------------------------------------
    # Subscription and access
    # ------------------------------------------------------------------
    def subscribe(
        self, record_type: Type, callback: Callable[[LogEntry], None]
    ) -> None:
        """Call ``callback(entry)`` for every committed record of the type."""
        self._subscribers.append((record_type, callback))
        self._dispatch_cache.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, seq: int) -> LogEntry:
        return self._entries[seq]

    def __iter__(self) -> Iterator[LogEntry]:
        return iter(self._entries)

    def entries_of_type(self, record_type: Type) -> List[LogEntry]:
        """All committed entries whose record is a ``record_type``.

        Served from the per-type index: subclass buckets (each already in
        commit order) are k-way merged by sequence number, so the result
        equals (in content and order) a full isinstance scan of the log
        in O(total · log k) without the rescan-and-sort.
        """
        buckets = [
            bucket
            for cls, bucket in self._by_type.items()
            if issubclass(cls, record_type)
        ]
        if not buckets:
            return []
        if len(buckets) == 1:
            return list(buckets[0])
        return list(_heap_merge(*buckets, key=_by_seq))

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest entry, or -1 when empty."""
        return len(self._entries) - 1

    def type_histogram(self) -> Dict[str, int]:
        """Per-type entry counts, keyed by type name in first-commit order."""
        histogram: Dict[str, int] = {}
        for cls, bucket in self._by_type.items():
            kind = cls.__name__
            histogram[kind] = histogram.get(kind, 0) + len(bucket)
        return histogram
