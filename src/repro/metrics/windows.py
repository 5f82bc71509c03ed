"""Windowed commit accounting: the timeline series in O(duration/window).

:class:`repro.metrics.runmetrics.RunMetrics` rebuilds its throughput and
latency timelines from the full commit list on every query.  The
sketch folds each commit into its fixed time window as it
happens, so memory scales with elapsed virtual time, never with request
volume.  Fed the same commits in the same order, the reconstructed
series are bit-identical to ``RunMetrics.throughput_series`` /
``latency_series`` at the same bucket width: requests per window are
integer sums (exact in floats far beyond any campaign size) and latency
sums accumulate in commit order, the same order the exact path reduces
them.

Every sketch records :data:`WINDOW`-second windows -- a sketch cannot
answer another granularity after the fact -- and querying at any other
bucket width is a loud error rather than a silently rebinned series.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Width of every sketch window, in simulated seconds.
WINDOW = 1.0


class ThroughputWindows:
    """Per-window request / block / latency-sum accumulators."""

    __slots__ = ("_requests", "_blocks", "_latency_sums")

    def __init__(self):
        self._requests: Dict[int, int] = {}
        self._blocks: Dict[int, int] = {}
        self._latency_sums: Dict[int, float] = {}

    def add(self, commit_time: float, latency: float, payload: int) -> None:
        """Fold one committed block into its window (the hot path)."""
        index = int(commit_time / WINDOW)
        requests = self._requests
        requests[index] = requests.get(index, 0) + payload
        blocks = self._blocks
        blocks[index] = blocks.get(index, 0) + 1
        sums = self._latency_sums
        sums[index] = sums.get(index, 0.0) + latency

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def merge(self, other: "ThroughputWindows") -> "ThroughputWindows":
        for index, payload in other._requests.items():
            self._requests[index] = self._requests.get(index, 0) + payload
        for index, blocks in other._blocks.items():
            self._blocks[index] = self._blocks.get(index, 0) + blocks
        for index, total in other._latency_sums.items():
            self._latency_sums[index] = self._latency_sums.get(index, 0.0) + total
        return self

    # ------------------------------------------------------------------
    # Series reconstruction (RunMetrics-compatible shapes)
    # ------------------------------------------------------------------
    def _check_bucket(self, bucket: float) -> None:
        if bucket != WINDOW:
            raise ValueError(
                f"series recorded at window={WINDOW}; cannot answer "
                f"bucket={bucket} after the fact"
            )

    def throughput_series(
        self, duration: float, bucket: float = 1.0
    ) -> List[Tuple[float, float]]:
        """``[(window_start, requests_per_second), ...]`` over ``duration``."""
        self._check_bucket(bucket)
        buckets = int(duration / bucket) + 1
        requests = self._requests
        return [
            (index * bucket, requests.get(index, 0) / bucket)
            for index in range(buckets)
        ]

    def latency_series(
        self, duration: float, bucket: float = 1.0
    ) -> List[Tuple[float, float]]:
        """Mean commit latency per non-empty window, like
        ``RunMetrics.latency_series`` (which also ignores ``duration``)."""
        self._check_bucket(bucket)
        sums = self._latency_sums
        blocks = self._blocks
        return [(index * bucket, sums[index] / blocks[index]) for index in sorted(sums)]

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        return {
            "windows": [
                [
                    index,
                    self._requests.get(index, 0),
                    self._blocks.get(index, 0),
                    self._latency_sums.get(index, 0.0),
                ]
                for index in sorted(self._blocks)
            ],
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "ThroughputWindows":
        windows = cls()
        for index, requests, blocks, latency_sum in state["windows"]:
            windows._requests[index] = requests
            windows._blocks[index] = blocks
            windows._latency_sums[index] = latency_sum
        return windows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ThroughputWindows(populated={len(self._blocks)})"
        )
