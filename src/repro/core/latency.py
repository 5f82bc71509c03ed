"""Latency sensor and monitor (§4.2.1).

The LatencySensor measures link latencies -- either by piggybacking on
protocol round-trips (HotStuff-style direct replies) or with dedicated
probe messages -- compiles them into a *latency vector*, and submits the
vector to the log.  Replicas that fail to reply are marked ``UNREACHABLE``.

The LatencyMonitor folds committed vectors into a symmetric *latency
matrix* ``L``:  ``L[A][B] = max(Lr(A,B), Lr(B,A))``, where ``Lr`` are the
recorded directional values.

Normalisation: matrix entries are **link latencies** (one-way ≈ RTT/2),
so that summing entries along a message path predicts the path's delay and
``d_m``/``d_rnd`` derived from the matrix (TR1-TR3) are directly comparable
with observed arrival times.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.log import AppendOnlyLog, LogEntry
from repro.core.monitor import Monitor
from repro.core.records import UNREACHABLE, LatencyVectorRecord
from repro.core.sensor import Sensor, SensorApp


class LatencySensor(Sensor):
    """Collects per-peer latency samples and emits latency vectors.

    Samples arrive through :meth:`observe_rtt` (protocol round trips,
    stored halved as link latencies).  The most recent
    sample per peer wins; an exponentially-weighted option is deliberately
    omitted because the paper re-measures periodically and replaces rows
    wholesale.
    """

    name = "latency-sensor"

    def __init__(self, replica_id: int, n: int, app: SensorApp):
        super().__init__(replica_id, app)
        self.n = n
        self._samples: Dict[int, float] = {}

    def observe_rtt(self, peer: int, rtt_seconds: float) -> None:
        """Record a round-trip observation; stored as link latency RTT/2."""
        self._samples[peer] = rtt_seconds / 2.0

    def mark_unreachable(self, peer: int) -> None:
        """Mark a peer that failed to reply (∞ in the vector)."""
        self._samples[peer] = UNREACHABLE

    def compile_vector(self, view: int = 0) -> LatencyVectorRecord:
        """Build the latency vector; unmeasured peers count as unreachable."""
        vector = tuple(
            0.0 if peer == self.replica_id else self._samples.get(peer, UNREACHABLE)
            for peer in range(self.n)
        )
        return LatencyVectorRecord(sender=self.replica_id, vector=vector, view=view)

    def measure_and_record(self, view: int = 0) -> LatencyVectorRecord:
        """Compile the current vector and submit it to the log."""
        record = self.compile_vector(view)
        self.record(record)
        return record


class LatencyMonitor(Monitor):
    """Maintains the symmetric latency matrix ``L`` (§4.2.1).

    The matrix is ``n x n`` with ``inf`` for unmeasured or unreachable
    pairs and zero diagonal.  Symmetry uses the paper's rule
    ``L[A][B] = max(Lr(A,B), Lr(B,A))``; while only one direction has been
    recorded, that direction's value is used.
    """

    name = "latency-monitor"
    record_types = (LatencyVectorRecord,)

    def __init__(self, replica_id: int, log: AppendOnlyLog, n: int):
        self.n = n
        # Raw directional recordings; NaN = never recorded.
        self._recorded = np.full((n, n), math.nan)
        self.matrix = np.full((n, n), math.inf)
        np.fill_diagonal(self.matrix, 0.0)
        np.fill_diagonal(self._recorded, 0.0)
        #: Accepted vectors so far.  Doubles as the matrix *epoch*: the
        #: matrix can only change when this does, so anything derived
        #: from the matrix (round plans) is valid until it moves.
        self.vectors_seen = 0
        #: Unordered pairs whose merged entry is still ``inf``.
        self._unmeasured = n * (n - 1) // 2
        super().__init__(replica_id, log)

    @property
    def epoch(self) -> int:
        """Version of :attr:`matrix`; bumped by every accepted vector."""
        return self.vectors_seen

    def on_entry(self, entry: LogEntry) -> None:
        record: LatencyVectorRecord = entry.record
        sender = record.sender
        if sender < 0 or sender >= self.n or len(record.vector) != self.n:
            return  # malformed rows are ignored (sender may be Byzantine)
        self.vectors_seen += 1
        for peer in range(self.n):
            if peer == sender:
                continue
            value = record.vector[peer]
            if value < 0:
                continue  # negative latencies are nonsensical; skip entry
            self._recorded[sender, peer] = value
            self._merge(sender, peer)

    def _merge(self, a: int, b: int) -> None:
        ab = self._recorded[a, b]
        ba = self._recorded[b, a]
        if math.isnan(ab) and math.isnan(ba):
            merged = math.inf
        elif math.isnan(ab):
            merged = ba
        elif math.isnan(ba):
            merged = ab
        else:
            merged = max(ab, ba)
        was_unmeasured = math.isinf(self.matrix[a, b])
        if math.isinf(merged) != was_unmeasured:
            self._unmeasured += -1 if was_unmeasured else 1
        self.matrix[a, b] = merged
        self.matrix[b, a] = merged

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def latency(self, a: int, b: int) -> float:
        """Symmetric link latency between ``a`` and ``b`` in seconds."""
        return float(self.matrix[a, b])

    def is_complete(self) -> bool:
        """True when every pair is measured (O(1): it runs once per
        proposal on every replica)."""
        return self._unmeasured == 0

def probe_all_peers(
    sensor: LatencySensor,
    rtt_provider: Callable[[int, int], float],
    responsive: Optional[Callable[[int], bool]] = None,
) -> None:
    """Convenience probe loop: measure every peer through ``rtt_provider``.

    Stands in for the dedicated probe messages of §4.2.1 in analytical
    experiments; the simulation-driven experiments measure real message
    round trips instead.
    """
    for peer in range(sensor.n):
        if peer == sensor.replica_id:
            continue
        if responsive is not None and not responsive(peer):
            sensor.mark_unreachable(peer)
        else:
            sensor.observe_rtt(peer, rtt_provider(sensor.replica_id, peer))
