"""Fixed-bin log-scale histogram with bounded-error quantiles.

The bins are geometrically spaced: with ``bins_per_decade`` = B, bin
``i`` covers ``[lo * r**i, lo * r**(i+1))`` where ``r = 10**(1/B)``.
A value is represented by the geometric midpoint of its bin, so any
single sample is reproduced within a multiplicative factor of
``sqrt(r)`` -- the **relative error bound**

    ``error_bound() = 10 ** (1 / (2 * bins_per_decade)) - 1``

(~1.16% at the default 100 bins/decade).  Quantile queries interpolate
between the bins holding the two bracketing order statistics exactly the
way :func:`repro.metrics.runmetrics.percentile` interpolates between the order
statistics themselves, and clamp into the exactly-tracked ``[min, max]``
envelope; the result therefore stays within ``error_bound()`` (relative)
of the exact linear-interpolated percentile for every distribution whose
values lie inside ``[lo, hi)``.  Constant and single-sample inputs are
exact thanks to the clamp.

Values outside ``[lo, hi)`` are clamped into the edge bins and counted
in ``clamped_low`` / ``clamped_high``; the error bound does not apply to
them (min/max stay exact either way).  The domain --
1 microsecond to 10,000 seconds -- brackets every latency this simulator
can produce by orders of magnitude.

Merging requires identical bin geometry and is a per-bin integer add:
associative, commutative, with the empty histogram as identity.
"""

from __future__ import annotations

import math
from typing import Dict, List


class LogHistogram:
    """Mergeable log-scale histogram over ``[lo, hi)``."""

    #: The domain: 1 microsecond to 10,000 seconds, one for every histogram.
    lo = 1e-6
    hi = 1e4

    __slots__ = (
        "bins_per_decade",
        "counts",
        "count",
        "total",
        "min",
        "max",
        "clamped_low",
        "clamped_high",
        "_scale",
        "_log_lo",
        "_n_bins",
    )

    def __init__(self, bins_per_decade: int = 100):
        if bins_per_decade < 1:
            raise ValueError(f"bins_per_decade must be >= 1, got {bins_per_decade!r}")
        self.bins_per_decade = int(bins_per_decade)
        self._log_lo = math.log10(self.lo)
        self._scale = float(self.bins_per_decade)
        self._n_bins = self._index_of(self.hi) + 1
        self.counts: List[int] = [0] * self._n_bins
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.clamped_low = 0
        self.clamped_high = 0

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def _index_of(self, value: float) -> int:
        return int((math.log10(value) - self._log_lo) * self._scale)

    def _bin_value(self, index: int) -> float:
        """Geometric midpoint of bin ``index`` (its representative value)."""
        return 10.0 ** (self._log_lo + (index + 0.5) / self.bins_per_decade)

    def error_bound(self) -> float:
        """Documented max relative error of :meth:`quantile` for in-domain
        values: half a bin, multiplicatively."""
        return 10.0 ** (1.0 / (2.0 * self.bins_per_decade)) - 1.0

    def compatible_with(self, other: "LogHistogram") -> bool:
        return self.bins_per_decade == other.bins_per_decade

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def add(self, value: float) -> None:
        """Record one observation (the campaign hot path)."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value < self.lo:
            self.clamped_low += 1
            self.counts[0] += 1
            return
        index = int((math.log10(value) - self._log_lo) * self._scale)
        if index >= self._n_bins:
            self.clamped_high += 1
            index = self._n_bins - 1
        self.counts[index] += 1

    # ------------------------------------------------------------------
    # Merge
    # ------------------------------------------------------------------
    def merge(self, other: "LogHistogram") -> "LogHistogram":
        """Fold ``other`` into ``self`` (in place); returns ``self``.

        Associative and commutative; a fresh histogram with the same
        geometry is the identity.  Histograms with different geometry
        cannot be merged -- quantiles would silently drift -- so that is
        a loud error.
        """
        if not self.compatible_with(other):
            raise ValueError(
                "cannot merge histograms with different geometry: "
                f"bpd={self.bins_per_decade} vs bpd={other.bins_per_decade}"
            )
        counts = self.counts
        for index, extra in enumerate(other.counts):
            if extra:
                counts[index] += extra
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self.clamped_low += other.clamped_low
        self.clamped_high += other.clamped_high
        return self

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Bounded-error analogue of ``percentile(sorted_values, q)``.

        Interpolates between the representative values of the bins
        holding the ``floor(pos)``-th and ``ceil(pos)``-th order
        statistics (``pos = q * (count - 1)``), then clamps into the
        exact ``[min, max]`` envelope.
        """
        if self.count == 0:
            return math.nan
        if q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        pos = q * (self.count - 1)
        lo_rank = math.floor(pos)
        frac = pos - lo_rank
        value_lo = self._value_at_rank(lo_rank)
        if frac == 0.0:
            result = value_lo
        else:
            value_hi = self._value_at_rank(lo_rank + 1)
            result = value_lo + frac * (value_hi - value_lo)
        return min(self.max, max(self.min, result))

    def _value_at_rank(self, rank: int) -> float:
        """Representative value of the ``rank``-th (0-based) order statistic."""
        remaining = rank
        for index, bucket in enumerate(self.counts):
            if bucket:
                if remaining < bucket:
                    return self._bin_value(index)
                remaining -= bucket
        return self._bin_value(self._n_bins - 1)  # pragma: no cover - rank<count

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Plain-data state: JSON-able, merge-transportable across
        processes.  Bins are stored sparsely as ``[index, count]`` pairs
        in index order so the state stays small and deterministic."""
        return {
            "lo": self.lo,
            "hi": self.hi,
            "bins_per_decade": self.bins_per_decade,
            "bins": [
                [index, bucket]
                for index, bucket in enumerate(self.counts)
                if bucket
            ],
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "clamped_low": self.clamped_low,
            "clamped_high": self.clamped_high,
        }

    @classmethod
    def from_state(cls, state: Dict[str, object]) -> "LogHistogram":
        if (state["lo"], state["hi"]) != (cls.lo, cls.hi):
            raise ValueError(
                f"histogram state over [{state['lo']}, {state['hi']}), "
                f"expected [{cls.lo}, {cls.hi})"
            )
        hist = cls(bins_per_decade=state["bins_per_decade"])
        for index, bucket in state["bins"]:
            hist.counts[index] = bucket
        hist.count = state["count"]
        hist.total = state["total"]
        hist.min = state["min"] if state["min"] is not None else math.inf
        hist.max = state["max"] if state["max"] is not None else -math.inf
        hist.clamped_low = state["clamped_low"]
        hist.clamped_high = state["clamped_high"]
        return hist

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LogHistogram(count={self.count}, mean={self.mean():.6g}, "
            f"bpd={self.bins_per_decade})"
        )
