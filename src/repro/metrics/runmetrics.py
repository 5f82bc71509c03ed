"""The measurement plane's observers: one interface, two implementations.

A replica records one :class:`CommitEvent` per committed block; a
workload records one per completed request (``height`` = request id,
``commit_time`` = completion time, ``propose_time`` = send time,
``payload_count`` = 1).  Both hand the event to the observer they were
given through ``use_metrics``, via the prebound callable its
``commit_sink()`` returns, and read it back through the same queries:
``total_requests``, ``committed_blocks``, ``throughput``,
``mean_latency``, ``latency_summary``, ``throughput_series`` and
``latency_series``.

* :class:`RunMetrics` keeps every event: exact answers, memory linear in
  the run.  Every scenario ``prepare_scenario`` builds measures with it.
* :class:`MetricsSketch` folds each event into a log histogram and a
  per-window timeline: O(1) memory, quantiles within
  :meth:`MetricsSketch.error_bound`.  A campaign swaps fresh ones in
  (:func:`repro.experiments.campaign.measure_with_sketches`).

Fed the same events, the two agree exactly on counts, totals and series
and within the bound on quantiles; that is a test of two runs of one
seed (``tests/experiments/test_measurement_modes.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.metrics.hist import LogHistogram
from repro.metrics.windows import ThroughputWindows


class CommitEvent(NamedTuple):
    """One committed block (or completed client request).

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


@dataclass
class RunMetrics:
    """The exact observer: every recorded event, in recording order.

    ``throughput_series(bucket)`` returns committed requests per second
    in time buckets, the series the paper's timelines plot (Figs. 7, 15).
    """

    commits: List[CommitEvent] = field(default_factory=list)

    def commit_sink(self) -> Callable[[CommitEvent], None]:
        """Hot-path sink taking a ready-made :class:`CommitEvent`."""
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
        """Latency mean/p50/p90/p99, or None without events.

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
        """Mean latency per non-empty time bucket (seconds)."""
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for event in self.commits:
            index = int(event.commit_time / bucket)
            sums[index] = sums.get(index, 0.0) + event.latency
            counts[index] = counts.get(index, 0) + 1
        return [
            (index * bucket, sums[index] / counts[index]) for index in sorted(sums)
        ]


class MetricsSketch:
    """The O(1)-memory observer, and the mergeable unit of a campaign.

    One latency histogram (which also keeps the exact count, sum, min
    and max, at 100 bins per decade) + one timeline of 1-second windows,
    plus exact block/request counters.  This is what a campaign shard
    serialises, checkpoints, and merges.  The series answer only at the
    recorded 1-second granularity.
    """

    __slots__ = ("hist", "windows", "blocks", "requests")

    def __init__(self):
        self.hist = LogHistogram()
        self.windows = ThroughputWindows()
        self.blocks = 0
        self.requests = 0

    # -- ingest --------------------------------------------------------
    def commit_sink(self) -> Callable[[CommitEvent], None]:
        """Hot-path sink taking a ready-made :class:`CommitEvent`."""
        return self.observe

    def observe(self, event: CommitEvent) -> None:
        """Fold one event in (the campaign hot path)."""
        _height, commit_time, propose_time, payload = event
        latency = commit_time - propose_time
        self.blocks += 1
        self.requests += payload
        self.hist.add(latency)
        self.windows.add(commit_time, latency, payload)

    def merge(self, other: "MetricsSketch") -> "MetricsSketch":
        """Fold ``other`` in; associative/commutative with a fresh sketch
        as identity (float sums are exact-order dependent, so shards
        merge in deterministic shard order)."""
        self.hist.merge(other.hist)
        self.windows.merge(other.windows)
        self.blocks += other.blocks
        self.requests += other.requests
        return self

    # -- queries -------------------------------------------------------
    def total_requests(self) -> int:
        return self.requests

    def committed_blocks(self) -> int:
        return self.blocks

    def throughput(self, duration: float) -> float:
        if duration <= 0:
            return 0.0
        return self.requests / duration

    def mean_latency(self) -> float:
        if self.blocks == 0:
            return float("inf")
        return self.hist.mean()

    def latency_summary(self) -> Optional[Dict[str, float]]:
        """The exact summary's keys, quantiles within :meth:`error_bound`;
        None without events."""
        if self.blocks == 0:
            return None
        return {
            "mean": self.hist.mean(),
            "p50": self.hist.quantile(0.50),
            "p90": self.hist.quantile(0.90),
            "p99": self.hist.quantile(0.99),
        }

    def throughput_series(
        self, duration: float, bucket: float = 1.0
    ) -> List[Tuple[float, float]]:
        return self.windows.throughput_series(duration, bucket)

    def latency_series(
        self, duration: float, bucket: float = 1.0
    ) -> List[Tuple[float, float]]:
        return self.windows.latency_series(duration, bucket)

    def error_bound(self) -> float:
        return self.hist.error_bound()

    # -- serialisation -------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        return {
            "hist": self.hist.state_dict(),
            "windows": self.windows.state_dict(),
            "blocks": self.blocks,
            "requests": self.requests,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "MetricsSketch":
        sketch = cls.__new__(cls)
        sketch.hist = LogHistogram.from_state(state["hist"])
        sketch.windows = ThroughputWindows.from_state(state["windows"])
        sketch.blocks = state["blocks"]
        sketch.requests = state["requests"]
        return sketch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsSketch(blocks={self.blocks}, requests={self.requests})"


#: What ``use_metrics`` takes: either observer, one interface.
Observer = Union[RunMetrics, MetricsSketch]
