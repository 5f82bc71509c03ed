"""Discrete-event simulation engine.

A :class:`Simulator` owns a virtual clock and a priority queue of events.
Events are callbacks scheduled at absolute virtual times; ties are broken
by insertion order so runs are fully deterministic.  Timers can be
cancelled through the :class:`EventHandle` returned by ``schedule``.

Hot-path notes
--------------
The queue stores ``(time, seq, handle, callback, args)`` tuples so heap
sift comparisons run at C speed on the ``(time, seq)`` prefix -- ``seq``
is unique, so later elements are never compared.  ``handle`` is ``None``
for events posted through :meth:`Simulator.post`, the non-cancellable
fast path used by the network for message deliveries: it skips the
:class:`EventHandle` allocation entirely.  Ordering semantics (time,
then insertion order) are identical for both kinds of entry.
"""

from __future__ import annotations

import gc
import random
from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Optional


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulator (e.g. scheduling in the past)."""


class SimClock:
    """Picklable ``now_fn``: calling it reads ``sim.now``.

    The fault adversaries take a ``now_fn`` clock; a ``lambda: sim.now``
    would pin the whole checkpointed object graph on an unpicklable
    closure, so windowed faults use this instead.
    """

    __slots__ = ("sim",)

    def __init__(self, sim: "Simulator"):
        self.sim = sim

    def __call__(self) -> float:
        return self.sim.now


class EventHandle:
    """Cancellable handle for a scheduled event."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[..., None], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Cancel the event; a cancelled event is skipped by the run loop."""
        self.cancelled = True

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.6f}, seq={self.seq}, {state})"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random generator.  All stochastic
        behaviour in a simulation (jitter, fault timing, annealing inside
        sensors) must draw from ``self.rng`` or a generator derived from it
        so repeated runs are bit-identical.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        #: Heap of ``(time, seq, handle_or_None, callback, args)``.
        self._queue: list[tuple] = []
        self._seq = 0
        self._running = False
        self.events_processed = 0
        #: High-water mark of the event queue (pending + cancelled), for
        #: the perf ledger's ``sim.engine.max_queue_depth`` count.
        self.max_queue_depth = 0
        #: The active run()'s time horizon (``inf`` outside run()).  Event
        #: callbacks that deliver many messages -- the network's store
        #: drains, which also pop deliveries off this queue's head -- read
        #: this so they never pass the point where run() would have stopped.
        self.horizon = float("inf")

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        # Written so NaN fails it: a NaN time would poison the heap order.
        if not delay >= 0:
            raise SimulationError(f"schedule delay must be >= 0, got {delay!r}")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute virtual ``time``."""
        if not time >= self.now:
            raise SimulationError(
                f"schedule time must be >= now={self.now!r}, got {time!r}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args)
        queue = self._queue
        _heappush(queue, (time, seq, handle, callback, args))
        if len(queue) > self.max_queue_depth:
            self.max_queue_depth = len(queue)
        return handle

    def post(self, delay: float, callback: Callable[..., None], args: tuple = ()) -> None:
        """Schedule a *non-cancellable* event ``delay`` seconds from now.

        The no-handle fast path for high-volume events that are never
        cancelled (message deliveries): same ordering semantics as
        :meth:`schedule`, without allocating an :class:`EventHandle`.
        ``delay`` must be non-negative; callers on the hot path guarantee
        that by construction (link delays and jitter are >= 0).
        """
        if not delay >= 0:
            raise SimulationError(f"post delay must be >= 0, got {delay!r}")
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        _heappush(queue, (self.now + delay, seq, None, callback, args))
        if len(queue) > self.max_queue_depth:
            self.max_queue_depth = len(queue)

    def derive_rng(self, label: str) -> random.Random:
        """Return a new generator deterministically derived from the seed.

        Components that need private randomness (per-replica sensors, fault
        injectors) use this so their draws do not perturb each other.
        """
        return random.Random(f"{self.rng.random()}:{label}")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _next_pending(self) -> Optional[tuple]:
        """Drop cancelled heads and return the next live entry (unpopped)."""
        queue = self._queue
        while queue:
            head = queue[0]
            handle = head[2]
            if handle is not None and handle.cancelled:
                _heappop(queue)
                continue
            return head
        return None

    def step(self) -> bool:
        """Run the next pending event.  Returns False if the queue is empty."""
        head = self._next_pending()
        if head is None:
            return False
        _heappop(self._queue)
        self.now = head[0]
        self.events_processed += 1
        head[3](*head[4])
        return True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` passes, or the budget ends.

        ``until`` is an absolute virtual time; events scheduled exactly at
        ``until`` are executed.  When the run stops because of ``until``,
        the clock is advanced to ``until`` so subsequent ``schedule`` calls
        are relative to the horizon.  ``max_events`` counts events actually
        executed (cancelled entries never count), so the budget matches the
        growth of :attr:`events_processed` exactly.
        """
        self._running = True
        executed = self.events_processed
        budget = executed + max_events if max_events is not None else None
        horizon = float("inf") if until is None else until
        self.horizon = horizon
        stopped_by_budget = False
        queue = self._queue
        pop = _heappop
        # Pause the cyclic collector for the duration of the loop: event
        # turnover is dominated by acyclic tuples and messages that
        # refcounting frees immediately, so generational scans only add
        # jitter.  Restored on every exit path.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            # Inlined event loop (no step()/_next_pending() calls): it runs
            # once per simulated event.  The semantics match step().
            # ``executed`` shadows events_processed inside the loop and is
            # synced on every exit path; callbacks must not read
            # events_processed mid-run (none do -- it is a post-run metric).
            while queue:
                head = queue[0]
                handle = head[2]
                if handle is not None and handle.cancelled:
                    pop(queue)
                    continue
                time = head[0]
                if time > horizon:
                    break
                if budget is not None and executed >= budget:
                    stopped_by_budget = True
                    break
                pop(queue)
                self.now = time
                executed += 1
                head[3](*head[4])
        finally:
            self._running = False
            self.events_processed = executed
            self.horizon = float("inf")
            if gc_was_enabled:
                gc.enable()
        # A budget stop may leave live events before the horizon; jumping
        # the clock over them would let later runs move time backwards.
        if until is not None and not stopped_by_budget and self.now < until:
            self.now = until

    @property
    def pending(self) -> int:
        """Number of non-cancelled events still queued."""
        return sum(
            1
            for entry in self._queue
            if entry[2] is None or not entry[2].cancelled
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.6f}, pending={self.pending})"
