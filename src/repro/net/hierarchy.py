"""Hierarchical (region-tiered) latency substrate.

The dense :class:`~repro.net.latency_model.LatencyModel` materializes an
n x n float64 RTT matrix -- ~134 MB at n=4096 before the one-way rows
double it -- which is the memory ceiling ROADMAP item 1 names.  This
module replaces it for large deployments with a two-tier model:

* an **inter-region base table**: an r x r RTT matrix over the distinct
  *anchor* locations (r <= 220 for the wonderproxy city pool, or the
  node set of an ingested topology graph), plus
* a **per-replica intra-region offset** in km: replica ``i`` sits
  ``offset_km[i]`` of route away from its region anchor, so

  ``rtt_ms(a, b) = base_ms[region(a), region(b)]
                   + (offset_km[a] + offset_km[b]) * MS_PER_KM``

  with ``base_ms`` replaced by ``LOCAL_RTT_MS`` when the regions match.

Memory is O(n + r^2) instead of O(n^2).  Rows for the network's
multicast path are synthesized on demand and kept in a bounded LRU, so
even an access pattern touching every source stays O(n * cache).

Bit-identity contract (load-bearing; pinned by the dense cross-check
and the scalar/row consistency oracles in ``tests/oracles.py``): with all offsets zero the model is
**bit-identical** to the dense model over the same cities.  Same-region
pairs reduce to ``LOCAL_RTT_MS + 0.0 * MS_PER_KM``, which is exactly the
dense zero-distance value; cross-region pairs serve the *same double*
the dense matrix holds, because :func:`_pairwise_rtt_ms` is elementwise
in its input pair (and bitwise symmetric: ``sin(-x) = -sin(x)`` and IEEE
multiplication commute), so anchor-table entries equal dense-matrix
entries regardless of index order, and ``x + 0.0 == x`` for the
non-negative offset term.  The scalar path and the vectorized row path
apply the same IEEE operations in the same order, so ``one_way(a, b)``
equals ``row(a)[b]`` bitwise -- with or without offsets.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Sequence

import numpy as np

from repro.net.cities import City
from repro.net.latency_model import (
    LOCAL_RTT_MS,
    MS_PER_KM,
    _pairwise_rtt_ms,
)

#: Rows kept by the per-model LRU; at n=4096 a row of boxed floats is
#: ~100 KB, so the default cache tops out around 13 MB.
ROW_CACHE_SIZE = 128


class _HierOneWay:
    """One-way delay provider over a hierarchical model.

    The network-facing twin of ``_OneWay``: scalar calls answer
    ``(src, dst)`` lookups and ``row(src)`` feeds the multicast batch
    paths.  Deliberately exposes **no** ``rows`` attribute -- an eager
    n x n materialization is exactly what this backend exists to avoid.
    A ``__slots__`` class so it pickles into checkpoint graphs.
    """

    __slots__ = ("model",)

    def __init__(self, model: "HierarchicalLatencyModel"):
        self.model = model

    def __call__(self, a: int, b: int) -> float:
        return self.model.one_way(a, b)

    def row(self, src: int) -> List[float]:
        return self.model.row(src)

    def delay_floor(self) -> float:
        return self.model.one_way_floor()


class HierarchicalLatencyModel:
    """Region-tiered latency model, API-compatible with ``LatencyModel``.

    Parameters
    ----------
    cities:
        One entry per replica (the *anchor* city of its region); the
        same city appearing repeatedly is what creates shared regions.
    offsets_km:
        Optional per-replica route distance from the anchor; ``None``
        means every replica sits exactly at its anchor (the bit-identical
        -to-dense configuration).
    regions / base_ms:
        Direct region assignment and inter-region RTT table (ms, zero
        diagonal), for backends that do not derive the table from city
        coordinates (the topology-graph backend).  When omitted, regions
        are keyed by distinct ``(lat, lon)`` in first-appearance order
        and the table is the haversine formula over the anchors.
    """

    def __init__(
        self,
        cities: Sequence[City],
        offsets_km: Optional[Sequence[float]] = None,
        regions: Optional[Sequence[int]] = None,
        base_ms: Optional[np.ndarray] = None,
    ):
        self.cities = list(cities)
        n = len(self.cities)
        if (regions is None) != (base_ms is None):
            raise ValueError("regions and base_ms must be given together")
        if regions is None:
            anchor_index: dict = {}
            region_of: List[int] = []
            anchors: List[City] = []
            for city in self.cities:
                key = (city.lat, city.lon)
                idx = anchor_index.get(key)
                if idx is None:
                    idx = len(anchors)
                    anchor_index[key] = idx
                    anchors.append(city)
                region_of.append(idx)
            lats = np.array([c.lat for c in anchors], dtype=float)
            lons = np.array([c.lon for c in anchors], dtype=float)
            base_ms = _pairwise_rtt_ms(lats, lons)
            regions = region_of
            self.anchors = anchors
        else:
            base_ms = np.asarray(base_ms, dtype=float)
            if base_ms.ndim != 2 or base_ms.shape[0] != base_ms.shape[1]:
                raise ValueError(f"base_ms must be square, got {base_ms.shape}")
            if any(r < 0 or r >= base_ms.shape[0] for r in regions):
                raise ValueError("region index out of range for base_ms")
            self.anchors = []
        if len(regions) != n:
            raise ValueError(f"{len(regions)} regions for {n} replicas")
        self._base_ms = base_ms
        #: Python-list twin of the base table: the scalar hot path reads
        #: plain floats (same doubles; tolist converts exactly).
        self._base_rows = base_ms.tolist()
        self._region = list(regions)
        self._region_arr = np.array(regions, dtype=np.intp)
        if offsets_km is None:
            offsets = [0.0] * n
        else:
            offsets = [float(v) for v in offsets_km]
            if len(offsets) != n:
                raise ValueError(f"{len(offsets)} offsets for {n} replicas")
            if any(v < 0.0 for v in offsets):
                raise ValueError("offsets_km must be non-negative")
        self._off = offsets
        self._off_arr = np.array(offsets, dtype=float)
        self._row_cache: "OrderedDict[int, List[float]]" = OrderedDict()

    @property
    def region_count(self) -> int:
        return self._base_ms.shape[0]

    # ------------------------------------------------------------------
    # Lookup (scalar path)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cities)

    def rtt_ms(self, a: int, b: int) -> float:
        """Round-trip time in milliseconds (paper's unit)."""
        if a == b:
            return 0.0
        ra = self._region[a]
        rb = self._region[b]
        base = LOCAL_RTT_MS if ra == rb else self._base_rows[ra][rb]
        off = self._off
        # Same IEEE op order as the vectorized row: offsets summed first,
        # scaled, then added to the base term.
        return base + (off[a] + off[b]) * MS_PER_KM

    def rtt(self, a: int, b: int) -> float:
        """Round-trip time in seconds."""
        if a == b:
            return 0.0
        return self.rtt_ms(a, b) / 1000.0

    def one_way(self, a: int, b: int) -> float:
        """One-way delay in seconds (half the RTT), bit-identical to the
        dense model's ``(rtt_ms / 1000.0) / 2.0`` for zero offsets."""
        if a == b:
            return 0.0
        return (self.rtt_ms(a, b) / 1000.0) / 2.0

    # ------------------------------------------------------------------
    # Row path (vectorized, LRU-cached)
    # ------------------------------------------------------------------
    def _row_ms(self, src: int) -> np.ndarray:
        """RTT ms from ``src`` to every replica (zero at ``src``)."""
        ra = self._region[src]
        region_arr = self._region_arr
        # Gather the base column for src's region, patch same-region
        # pairs to the local RTT, add the offset term elementwise -- the
        # exact scalar expression, one IEEE op at a time.
        row_ms = self._base_ms[ra][region_arr]
        row_ms = np.where(region_arr == ra, LOCAL_RTT_MS, row_ms)
        row_ms = row_ms + (self._off[src] + self._off_arr) * MS_PER_KM
        row_ms[src] = 0.0
        return row_ms

    def _row_seconds(self, src: int) -> List[float]:
        seconds = (self._row_ms(src) / 1000.0) / 2.0
        row = seconds.tolist()
        row[src] = 0.0
        return row

    def row(self, src: int) -> List[float]:
        """One-way delays (seconds) from ``src`` to every replica.

        ``row(src)[dst]`` equals :meth:`one_way`\\ ``(src, dst)`` bitwise.
        Rows are built on demand and kept in a bounded LRU so the
        multicast send path pays one vectorized synthesis per miss, not
        one scalar call per destination.
        """
        cache = self._row_cache
        row = cache.get(src)
        if row is not None:
            cache.move_to_end(src)
            return row
        row = self._row_seconds(src)
        cache[src] = row
        if len(cache) > ROW_CACHE_SIZE:
            cache.popitem(last=False)
        return row

    def one_way_floor(self) -> float:
        """Lower bound (seconds) on the one-way delay of every distinct
        pair, without materializing any O(n^2) view.

        Distinct pairs pay at least the base term (``LOCAL_RTT_MS`` in
        region, the base table across regions) and offsets only add, so
        the minimum over the region table bounds every pair from below.
        Conservative is fine here -- the consumer (the network store's
        drain window) only needs *a* positive lower bound.
        """
        base = self._base_ms
        regions = base.shape[0]
        floor_ms = LOCAL_RTT_MS
        if regions > 1:
            off = base[~np.eye(regions, dtype=bool)]
            floor_ms = min(floor_ms, float(off.min()))
        if len(self.cities) < 2 or floor_ms <= 0.0:
            return 0.0
        return (floor_ms / 1000.0) / 2.0

    def one_way_provider(self) -> _HierOneWay:
        """The network-facing delay provider for this model."""
        return _HierOneWay(self)

    # ------------------------------------------------------------------
    # Dense views (small-n analysis only -- these are O(n^2) on purpose)
    # ------------------------------------------------------------------
    def matrix_ms(self) -> np.ndarray:
        """Full RTT matrix in ms.  O(n^2) memory: for figures and
        search at small n, never the simulation hot path."""
        n = len(self.cities)
        out = np.empty((n, n), dtype=float)
        for a in range(n):
            out[a] = self._row_ms(a)
        return out

    def matrix_seconds(self) -> np.ndarray:
        """Full RTT matrix in seconds (zero diagonal).  O(n^2); see
        :meth:`matrix_ms`."""
        n = len(self.cities)
        out = np.empty((n, n), dtype=float)
        for a in range(n):
            out[a] = self._row_ms(a) / 1000.0
        return out

    def stats_ms(self) -> dict:
        """Envelope statistics over all distinct pairs, in ms.

        Streams one synthesized row at a time (O(n) memory), so it works
        at n=4096 without materializing the matrix.
        """
        n = len(self.cities)
        if n < 2:
            return {"min": 0.0, "max": 0.0, "mean": 0.0}
        lo = float("inf")
        hi = 0.0
        total = 0.0
        count = 0
        for a in range(n - 1):
            row_ms = self._row_ms(a)[a + 1 :]
            lo = min(lo, float(row_ms.min()))
            hi = max(hi, float(row_ms.max()))
            total += float(row_ms.sum())
            count += row_ms.shape[0]
        return {"min": lo, "max": hi, "mean": total / count}

