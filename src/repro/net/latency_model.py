"""Distance-based round-trip-time model.

The paper reports that its emulator's intercontinental delays range from
150 to 250 ms, plus the 1 ms actual network delay of the cluster.  We
reproduce that envelope analytically:

``rtt_ms(A, B) = LOCAL_RTT_MS + distance_km(A, B) * MS_PER_KM``

with ``MS_PER_KM = 0.0125``: light in fibre covers ~100 km per millisecond
of RTT on a great-circle path, and real routes are ~25% longer than the
great circle.  Antipodal pairs (~20,000 km) then see ~250 ms and nearby
European pairs 5-40 ms, matching the paper's envelope.

The model is symmetric and deterministic; per-message jitter is applied by
the network layer, not here.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.net.cities import City
from repro.net.geo import EARTH_RADIUS_KM, haversine_km

LOCAL_RTT_MS = 1.0
MS_PER_KM = 0.0125

#: Largest n for which the dense provider eagerly tolist's the full
#: one-way matrix.  Beyond this the nested Python lists dominate the
#: footprint (~540 MB at n=4096, on top of the 134 MB float64 matrix),
#: so larger models serve rows lazily from the matrix instead.
EAGER_ROWS_MAX_N = 512


class _OneWay:
    """Eager matrix-backed one-way delay provider (small n).

    A ``__slots__`` class rather than a closure: the callable ends up
    inside every checkpointed object graph (network, fault adversaries),
    and closures do not pickle.  The exposed ``rows`` attribute lets
    batch senders (``Network.multicast``) index the matrix directly
    instead of calling per destination, exactly as before.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: List[List[float]]):
        self.rows = rows

    def __call__(self, a: int, b: int) -> float:
        return self.rows[a][b]

    def row(self, src: int) -> List[float]:
        return self.rows[src]

    def delay_floor(self) -> float:
        """Smallest cross-node delay (seconds); the network store's
        window cap (``sim.network._FastSpine.cut``) needs a lower bound
        on every delay this provider can ever answer."""
        matrix = np.asarray(self.rows, dtype=float)
        n = matrix.shape[0]
        if n < 2:
            return 0.0
        off = matrix[~np.eye(n, dtype=bool)]
        return float(off.min())


class _LazyOneWay:
    """Lazy matrix-backed one-way delay provider (large n).

    Serves scalar lookups straight off the float64 RTT matrix
    (``.item()`` unboxes the exact double; the scalar division chain
    matches ``LatencyModel.one_way`` bitwise) and synthesizes row lists
    on demand into a bounded LRU, so the n x n nested-list twin of the
    matrix is never materialized.
    """

    __slots__ = ("matrix_ms", "_cache")

    #: Rows kept per provider; a 4096-wide row of boxed floats is
    #: ~130 KB, so the cache tops out around 17 MB.
    CACHE_SIZE = 128

    def __init__(self, matrix_ms: np.ndarray):
        self.matrix_ms = matrix_ms
        self._cache: "OrderedDict[int, List[float]]" = OrderedDict()

    def __call__(self, a: int, b: int) -> float:
        # Same IEEE chain as LatencyModel.one_way: (ms / 1000.0) / 2.0
        # on the exact matrix double (zero diagonal included).
        return (self.matrix_ms.item(a, b) / 1000.0) / 2.0

    def row(self, src: int) -> List[float]:
        cache = self._cache
        row = cache.get(src)
        if row is not None:
            cache.move_to_end(src)
            return row
        # Elementwise IEEE divisions match the scalar chain exactly;
        # tolist() converts without changing any double.
        row = ((self.matrix_ms[src] / 1000.0) / 2.0).tolist()
        cache[src] = row
        if len(cache) > self.CACHE_SIZE:
            cache.popitem(last=False)
        return row

    def delay_floor(self) -> float:
        """Smallest cross-node one-way delay in seconds (see
        ``_OneWay.delay_floor``)."""
        n = self.matrix_ms.shape[0]
        if n < 2:
            return 0.0
        off = self.matrix_ms[~np.eye(n, dtype=bool)]
        return (float(off.min()) / 1000.0) / 2.0

    def __getstate__(self):
        return self.matrix_ms

    def __setstate__(self, state):
        self.matrix_ms = state
        self._cache = OrderedDict()


def _pairwise_rtt_ms(lats: np.ndarray, lons: np.ndarray) -> np.ndarray:
    """Vectorized RTT matrix, bit-identical to the scalar pair loop.

    Everything is computed in float64 numpy ops that match ``math``'s
    libm results exactly (radians/sin/cos/sqrt verified identical), with
    two deliberate exceptions where numpy's defaults diverge by one ulp
    on some inputs:

    * ``x ** 2`` -- CPython routes ``float ** 2`` through libm ``pow``,
      numpy squares (``x * x``); ``np.float_power`` restores ``pow``.
    * ``asin`` -- numpy's SIMD ``arcsin`` differs from ``math.asin`` in
      the last ulp for some inputs, so the final arc step runs through
      ``math.asin`` over the n*(n-1)/2 upper-triangle values -- still
      milliseconds at n=512, versus seconds for the full scalar loop.

    Only the upper triangle is computed and mirrored, exactly like the
    scalar construction, so the matrix is symmetric by copy, not by
    floating-point luck.
    """
    n = lats.shape[0]
    rtt = np.zeros((n, n), dtype=float)
    if n < 2:
        return rtt
    upper_i, upper_j = np.triu_indices(n, k=1)
    phi = np.radians(lats)
    cos_phi = np.cos(phi)
    dphi = np.radians(lats[upper_j] - lats[upper_i])
    dlam = np.radians(lons[upper_j] - lons[upper_i])
    a = (
        np.float_power(np.sin(dphi / 2.0), 2.0)
        + cos_phi[upper_i] * cos_phi[upper_j] * np.float_power(np.sin(dlam / 2.0), 2.0)
    )
    arg = np.minimum(1.0, np.sqrt(a))
    asin = math.asin
    distance_km = np.fromiter(
        (asin(x) for x in arg.tolist()), dtype=float, count=arg.shape[0]
    ) * (2.0 * EARTH_RADIUS_KM)
    values = LOCAL_RTT_MS + distance_km * MS_PER_KM
    rtt[upper_i, upper_j] = values
    rtt[upper_j, upper_i] = values
    return rtt


class LatencyModel:
    """Round-trip and one-way latencies for a fixed list of locations.

    The model is indexed by replica id (position in ``cities``), matching
    how the consensus engines address replicas.  Latencies are cached in a
    dense matrix at construction.

    Parameters
    ----------
    cities:
        One entry per replica; the same city may appear multiple times
        (co-located replicas see only the 1 ms local RTT).
    """

    def __init__(self, cities: Sequence[City]):
        self.cities = list(cities)
        lats = np.array([city.lat for city in self.cities], dtype=float)
        lons = np.array([city.lon for city in self.cities], dtype=float)
        self._rtt_ms = _pairwise_rtt_ms(lats, lons)

    @staticmethod
    def _pair_rtt_ms(a: City, b: City) -> float:
        """Scalar reference for one pair; the constructor is vectorized
        (see :func:`_pairwise_rtt_ms`) but must stay bit-identical to
        this formula -- the equivalence test compares the two."""
        distance = haversine_km(a.lat, a.lon, b.lat, b.lon)
        return LOCAL_RTT_MS + distance * MS_PER_KM

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cities)

    def rtt(self, a: int, b: int) -> float:
        """Round-trip time between replicas ``a`` and ``b`` in seconds."""
        if a == b:
            return 0.0
        return float(self._rtt_ms[a, b]) / 1000.0

    def rtt_ms(self, a: int, b: int) -> float:
        """Round-trip time in milliseconds (paper's unit)."""
        if a == b:
            return 0.0
        return float(self._rtt_ms[a, b])

    def one_way(self, a: int, b: int) -> float:
        """One-way delay in seconds (half the RTT)."""
        return self.rtt(a, b) / 2.0

    def matrix_seconds(self) -> np.ndarray:
        """Full symmetric RTT matrix in seconds (zero diagonal)."""
        return self._rtt_ms / 1000.0

    def one_way_rows(self) -> List[List[float]]:
        """One-way delays in seconds as nested Python lists.

        ``rows[a][b]`` equals :meth:`one_way`\\ ``(a, b)`` bit-for-bit
        (same float ops on the same doubles); plain list indexing is what
        the per-message simulation hot path uses instead of numpy scalar
        indexing, which costs an order of magnitude more per lookup.
        """
        # Elementwise IEEE divisions match the scalar (v / 1000.0) / 2.0
        # exactly; tolist() converts without changing any double.
        return ((self._rtt_ms / 1000.0) / 2.0).tolist()

    def one_way_provider(self):
        """The network-facing delay provider for this model.

        Small models eagerly tolist the one-way matrix (list indexing is
        the fastest per-message lookup); past ``EAGER_ROWS_MAX_N`` the
        provider serves rows lazily from the float64 matrix so the
        nested-list twin never doubles the footprint.  Both providers
        answer ``(a, b)`` calls and ``row(src)`` bit-identically to
        :meth:`one_way`.
        """
        if len(self.cities) <= EAGER_ROWS_MAX_N:
            return _OneWay(self.one_way_rows())
        return _LazyOneWay(self._rtt_ms)

    def matrix_ms(self) -> np.ndarray:
        """Full symmetric RTT matrix in milliseconds (zero diagonal)."""
        return self._rtt_ms.copy()

    def stats_ms(self) -> Dict[str, float]:
        """Envelope statistics over all distinct pairs, in milliseconds."""
        n = len(self.cities)
        upper = self._rtt_ms[np.triu_indices(n, k=1)]
        if upper.size == 0:
            return {"min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "min": float(upper.min()),
            "max": float(upper.max()),
            "mean": float(upper.mean()),
        }

    def closest_index(self, lat: float, lon: float) -> int:
        """Index of the model city closest to (lat, lon).

        Used to map external validator locations (e.g. the Stellar set)
        onto the emulated network, as the paper does.
        """
        best: Tuple[float, int] = (float("inf"), -1)
        for idx, city in enumerate(self.cities):
            dist = haversine_km(lat, lon, city.lat, city.lon)
            if dist < best[0]:
                best = (dist, idx)
        return best[1]
