"""Monitor abstraction (§4.1, Table 1).

Monitors are the deterministic counterparts to sensors: they consume the
committed log (and metrics of other local monitors) and compute metrics
that are, by construction, identical on every correct replica.  The base
class wires a monitor to its record type(s) on the local log view.
"""

from __future__ import annotations

from typing import Callable, List

from repro.core.log import AppendOnlyLog, LogEntry


class Monitor:
    """Base class for monitors (deterministic, log-driven).

    Subclasses implement :meth:`on_entry` and declare the record types
    they consume via ``record_types``.  Monitors may also expose derived
    metrics to other local monitors (e.g. the LatencyMonitor's matrix is
    read by the ConfigSensor), which stays deterministic because those
    metrics are themselves functions of the log prefix.
    """

    name: str = "monitor"
    record_types: tuple = ()

    def __init__(self, replica_id: int, log: AppendOnlyLog):
        self.replica_id = replica_id
        self.log = log
        self.entries_processed = 0
        self._listeners: List[Callable[[], None]] = []
        for record_type in self.record_types:
            log.subscribe(record_type, self._dispatch)

    def _dispatch(self, entry: LogEntry) -> None:
        self.entries_processed += 1
        self.on_entry(entry)
        # Most monitors have no chained listeners; skip the loop (and its
        # iterator setup) on the per-commit path in that case.
        listeners = self._listeners
        if listeners:
            for listener in listeners:
                listener()

    def on_entry(self, entry: LogEntry) -> None:
        """Process one committed record (deterministic)."""
        raise NotImplementedError

    def add_listener(self, listener: Callable[[], None]) -> None:
        """Register a callback invoked after each processed entry.

        Used to chain monitors (Fig. 3), e.g. the ConfigMonitor re-checks
        configuration validity whenever the SuspicionMonitor updates K.
        """
        self._listeners.append(listener)
