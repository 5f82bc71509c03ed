"""RunMetrics-compatible streaming twin.

:class:`StreamingRunMetrics` answers the same questions as
:class:`repro.consensus.base.RunMetrics` -- totals, mean latency,
percentile summary, timeline series -- from a constant-size
:class:`MetricsSketch` instead of the full commit list.  That it stays
inside the sketch's documented error bound is a test of two runs of one
seed (``tests/experiments/test_measurement_modes.py``).

The selector lives in the scenario runner:
``MeasurementPolicy(metrics="exact" | "sketch")``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.metrics.hist import LogHistogram
from repro.metrics.windows import ThroughputWindows


class MetricsSketch:
    """The mergeable unit of campaign measurement.

    One latency histogram (which also keeps the exact count, sum, min
    and max) + one windowed timeline, plus exact block/request counters.
    This is what a campaign shard serialises, checkpoints, and merges.
    """

    __slots__ = ("hist", "windows", "blocks", "requests")

    def __init__(
        self,
        bins_per_decade: int = 100,
        window: float = 1.0,
    ):
        self.hist = LogHistogram(bins_per_decade=bins_per_decade)
        self.windows = ThroughputWindows(window=window)
        self.blocks = 0
        self.requests = 0

    def observe(self, commit_time: float, latency: float, payload: int) -> None:
        """Fold one committed block in (the campaign hot path)."""
        self.blocks += 1
        self.requests += payload
        self.hist.add(latency)
        self.windows.add(commit_time, latency, payload)

    def merge(self, other: "MetricsSketch") -> "MetricsSketch":
        """Fold ``other`` in; associative/commutative with a fresh sketch
        of the same configuration as identity (float sums are exact-order
        dependent, so shards merge in deterministic shard order)."""
        self.hist.merge(other.hist)
        self.windows.merge(other.windows)
        self.blocks += other.blocks
        self.requests += other.requests
        return self

    def summary(self) -> Optional[Dict[str, float]]:
        """``commit_latency`` dict shaped like the exact path's, or None."""
        if self.blocks == 0:
            return None
        return {
            "mean": self.hist.mean(),
            "p50": self.hist.quantile(0.50),
            "p90": self.hist.quantile(0.90),
            "p99": self.hist.quantile(0.99),
        }

    def error_bound(self) -> float:
        return self.hist.error_bound()

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


class StreamingRunMetrics:
    """Drop-in ``RunMetrics`` twin backed by a :class:`MetricsSketch`.

    Replicas feed it through :meth:`commit_sink` -- a callable taking a
    :class:`~repro.consensus.base.CommitEvent` -- which folds each event
    into the sketch and keeps no per-commit state.
    """

    __slots__ = ("sketch",)

    #: Distinguishes streaming observers without isinstance imports.
    streaming = True

    def __init__(self, sketch: Optional[MetricsSketch] = None):
        self.sketch = sketch if sketch is not None else MetricsSketch()

    # -- ingest --------------------------------------------------------
    def commit_sink(self) -> Callable[[Any], None]:
        """Hot-path sink matching ``RunMetrics.commits.append``."""
        return self._ingest_event

    def _ingest_event(self, event: Any) -> None:
        self.sketch.observe(
            event.commit_time,
            event.commit_time - event.propose_time,
            event.payload_count,
        )

    # -- queries (RunMetrics API) --------------------------------------
    def total_requests(self) -> int:
        return self.sketch.requests

    def committed_blocks(self) -> int:
        return self.sketch.blocks

    def throughput(self, duration: float) -> float:
        if duration <= 0:
            return 0.0
        return self.sketch.requests / duration

    def mean_latency(self) -> float:
        if self.sketch.blocks == 0:
            return float("inf")
        return self.sketch.hist.mean()

    def latency_summary(self) -> Optional[Dict[str, float]]:
        return self.sketch.summary()

    def throughput_series(
        self, duration: float, bucket: float = 1.0
    ) -> List[Tuple[float, float]]:
        return self.sketch.windows.throughput_series(duration, bucket)

    def latency_series(
        self, duration: float, bucket: float = 1.0
    ) -> List[Tuple[float, float]]:
        return self.sketch.windows.latency_series(duration, bucket)
