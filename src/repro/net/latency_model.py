"""Distance-based round-trip-time model over a region table.

The paper reports that its emulator's intercontinental delays range from
150 to 250 ms, plus the 1 ms actual network delay of the cluster.  We
reproduce that envelope analytically:

``rtt_ms(A, B) = LOCAL_RTT_MS + distance_km(A, B) * MS_PER_KM``

with ``MS_PER_KM = 0.0125``: light in fibre covers ~100 km per millisecond
of RTT on a great-circle path, and real routes are ~25% longer than the
great circle.  Antipodal pairs (~20,000 km) then see ~250 ms and nearby
European pairs 5-40 ms, matching the paper's envelope.

A deployment is a list of cities, stored as one *region* per distinct
location and an r x r table of base RTTs between regions:

``rtt_ms(a, b) = base_ms[region(a), region(b)]``

with ``base_ms`` replaced by ``LOCAL_RTT_MS`` when the regions match.
Memory is O(n + r^2); the O(n^2) views (``matrix_ms``, eager rows) are
one vectorized gather, on request.

Every pair gets exactly the double the formula gives for its two cities:
:func:`_pairwise_rtt_ms` is elementwise in its input pair and bitwise
symmetric (``sin(-x) = -sin(x)`` and IEEE multiplication commutes), and
co-located pairs reduce to ``LOCAL_RTT_MS + 0.0 * MS_PER_KM``.  The
scalar path, the row path and the matrix apply the same IEEE operations
in the same order, so ``one_way(a, b)`` equals ``row(a)[b]`` bitwise.

The model is symmetric and deterministic; per-message jitter is applied by
the network layer, not here.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from numbers import Integral
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.net.cities import City

EARTH_RADIUS_KM = 6371.0
LOCAL_RTT_MS = 1.0
MS_PER_KM = 0.0125

#: Largest n whose delay provider holds every one-way delay as nested
#: Python lists (list indexing is the fastest per-message lookup).  Past
#: it rows are built on demand into an LRU: at n = 512 the eager lists
#: would add ~11 MB to a run that peaks near 56 MB, and ~540 MB at
#: n = 4096.  256 keeps every named deployment and every role-search
#: draw (n <= 211) eager and the n = 512 scale row lazy.
EAGER_ROWS_MAX_N = 256

#: Rows kept by a lazy provider's LRU; a 4096-wide row of boxed floats
#: is ~130 KB, so the cache tops out around 17 MB.
ROW_CACHE_SIZE = 128


#: One-way delay between two distinct nodes of one region: half the
#: local RTT, the same double :meth:`LatencyModel.one_way` answers for a
#: co-located replica pair.
LOCAL_ONE_WAY = (LOCAL_RTT_MS / 1000.0) / 2.0


class DelayProvider:
    """A cluster network's one-way delays, for replicas and clients alike.

    Node ids below ``n = len(model)`` are replicas; ids ``>= n`` are
    clients, each sitting at the replica city :meth:`place` pinned it to,
    or at ``default_site``.  A scalar call ``(a, b)`` answers 0.0 for
    ``a == b``, :data:`LOCAL_ONE_WAY` for two distinct nodes in one
    region (a client and its site's replica included) and the model's
    value otherwise.

    ``row(src)`` feeds the Python-loop send paths (``Network.fan_out``)
    and ``row_array(src)`` the store's vectorized one; entry ``dst`` of
    either equals the scalar call for every replica ``dst != src``.
    Models with n <= :data:`EAGER_ROWS_MAX_N` also get ``rows``, the
    replicas' one-way matrix as nested lists, which the network indexes
    directly for replica pairs; larger models answer ``rows = None`` and
    build each replica row on demand into a bounded LRU.  A client's row
    is its site's row with the site's own entry at
    :data:`LOCAL_ONE_WAY`, cached per client until :meth:`place` moves
    it.  Float64 rows are built uncached: the caches serve only the list
    paths.

    A ``__slots__`` class rather than a closure: it ends up inside every
    checkpointed object graph (network, fault adversaries).  It pickles
    its model, default site and placements, and re-derives rows and
    caches on load.
    """

    __slots__ = ("model", "n", "rows", "sites", "_default_site", "_cache",
                 "_client_rows")

    def __init__(self, model: "LatencyModel", default_site: int = 0):
        self.model = model
        self.n = n = len(model)
        self.rows: Optional[List[List[float]]] = (
            model.one_way_rows() if n <= EAGER_ROWS_MAX_N else None
        )
        #: client id -> the replica city it sits at (see :meth:`place`).
        self.sites: Dict[int, int] = {}
        self._cache: "OrderedDict[int, List[float]]" = OrderedDict()
        self._client_rows: Dict[int, List[float]] = {}
        self.default_site = default_site

    def _checked_site(self, site: int, name: str) -> int:
        # The one range check for both ways a client gets a city: a
        # wrapped index would silently run it from another city.
        if not (isinstance(site, Integral) and 0 <= site < self.n):
            raise ValueError(
                f"{name} must be a city index in [0, {self.n}), got {site!r}"
            )
        return site

    @property
    def default_site(self) -> int:
        """The replica city of every client :meth:`place` left unpinned
        (the scenario's ``client_city``)."""
        return self._default_site

    @default_site.setter
    def default_site(self, site: int) -> None:
        self._default_site = self._checked_site(site, "client_city")
        self._client_rows.clear()

    def place(self, client_id: int, site: Optional[int]) -> None:
        """Pin ``client_id`` to replica city ``site``; ``None`` leaves it
        at the default site.  The ``place_client`` callback of
        :class:`~repro.workloads.base.ClusterBinding`."""
        if site is not None:
            self.sites[client_id] = self._checked_site(site, "client site")
            self._client_rows.pop(client_id, None)

    def __call__(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        n = self.n
        if a >= n:
            a = self.sites.get(a, self._default_site)
        if b >= n:
            b = self.sites.get(b, self._default_site)
        if a == b:
            return LOCAL_ONE_WAY
        rows = self.rows
        if rows is not None:
            return rows[a][b]
        return self.model.one_way(a, b)

    def row(self, src: int) -> List[float]:
        if src >= self.n:
            row = self._client_rows.get(src)
            if row is None:
                site = self.sites.get(src, self._default_site)
                row = list(self.row(site))
                row[site] = LOCAL_ONE_WAY
                self._client_rows[src] = row
            return row
        rows = self.rows
        if rows is not None:
            return rows[src]
        cache = self._cache
        row = cache.get(src)
        if row is not None:
            cache.move_to_end(src)
            return row
        row = self.model.one_way_row(src)
        cache[src] = row
        if len(cache) > ROW_CACHE_SIZE:
            cache.popitem(last=False)
        return row

    def row_array(self, src: int) -> np.ndarray:
        """``row(src)`` as a fresh float64 array."""
        if src >= self.n:
            return np.array(self.row(src), dtype=np.float64)
        return self.model.one_way_row_array(src)

    def delay_floor(self) -> float:
        """Smallest delay (seconds) between two distinct nodes, clients
        included; the network store's window cap
        (``sim.network._FastSpine.cut``) needs a lower bound on every
        delay this provider can ever answer."""
        return min(self.model.one_way_floor(), LOCAL_ONE_WAY)

    def __getstate__(self):
        return self.model, self._default_site, self.sites

    def __setstate__(self, state):
        model, default_site, sites = state
        self.__init__(model, default_site)
        self.sites = sites


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
    """Round-trip and one-way latencies for a fixed list of replicas.

    The model is indexed by replica id (position in ``cities``), matching
    how the consensus engines address replicas.  The same location
    appearing repeatedly is what creates shared regions: co-located
    replicas see only the 1 ms local RTT.  Regions are keyed by distinct
    ``(lat, lon)`` in first-appearance order and the table is the
    haversine formula over those locations.
    """

    def __init__(self, cities: Sequence[City]):
        self.cities = list(cities)
        region_of: Dict[tuple, int] = {}
        self._region = [
            region_of.setdefault((city.lat, city.lon), len(region_of))
            for city in self.cities
        ]
        lats = np.array([lat for lat, _ in region_of], dtype=float)
        lons = np.array([lon for _, lon in region_of], dtype=float)
        self._base_ms = _pairwise_rtt_ms(lats, lons)
        self._region_arr = np.array(self._region, dtype=np.intp)

    def __getstate__(self):
        return (self.cities,)

    def __setstate__(self, state):
        self.__init__(*state)

    @property
    def region_count(self) -> int:
        return self._base_ms.shape[0]

    # ------------------------------------------------------------------
    # Scalar lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.cities)

    def rtt_ms(self, a: int, b: int) -> float:
        """Round-trip time in milliseconds (paper's unit)."""
        if a == b:
            return 0.0
        ra = self._region[a]
        rb = self._region[b]
        # .item() unboxes the exact double; the scalar path only runs
        # per message past EAGER_ROWS_MAX_N, so no list twin is kept.
        return LOCAL_RTT_MS if ra == rb else self._base_ms.item(ra, rb)

    def rtt(self, a: int, b: int) -> float:
        """Round-trip time between replicas ``a`` and ``b`` in seconds."""
        if a == b:
            return 0.0
        return self.rtt_ms(a, b) / 1000.0

    def one_way(self, a: int, b: int) -> float:
        """One-way delay in seconds (half the RTT)."""
        if a == b:
            return 0.0
        return (self.rtt_ms(a, b) / 1000.0) / 2.0

    # ------------------------------------------------------------------
    # Vectorized views
    # ------------------------------------------------------------------
    def one_way_row_array(self, src: int) -> np.ndarray:
        """One-way delays (seconds) from ``src`` to every replica, as a
        fresh float64 array; entry ``dst`` equals :meth:`one_way`
        bitwise."""
        region = self._region_arr
        ra = self._region[src]
        row_ms = np.where(region == ra, LOCAL_RTT_MS, self._base_ms[ra][region])
        row_ms[src] = 0.0
        return (row_ms / 1000.0) / 2.0

    def one_way_row(self, src: int) -> List[float]:
        """:meth:`one_way_row_array` as a list (``tolist()`` converts
        without changing any double)."""
        return self.one_way_row_array(src).tolist()

    def matrix_ms(self) -> np.ndarray:
        """Full symmetric RTT matrix in milliseconds (zero diagonal).

        One gather of the base table, the same IEEE ops as the scalar
        path; O(n^2) memory, for figures, search and the eager rows."""
        region = self._region_arr
        out = self._base_ms[np.ix_(region, region)]
        out[region[:, None] == region[None, :]] = LOCAL_RTT_MS
        np.fill_diagonal(out, 0.0)
        return out

    def matrix_seconds(self) -> np.ndarray:
        """Full symmetric RTT matrix in seconds (zero diagonal)."""
        return self.matrix_ms() / 1000.0

    def one_way_rows(self) -> List[List[float]]:
        """One-way delays in seconds as nested Python lists.

        ``rows[a][b]`` equals :meth:`one_way`\\ ``(a, b)`` bit-for-bit
        (same float ops on the same doubles); plain list indexing is what
        the per-message simulation hot path uses instead of numpy scalar
        indexing, which costs an order of magnitude more per lookup.
        """
        # Elementwise IEEE divisions match the scalar (v / 1000.0) / 2.0
        # exactly; tolist() converts without changing any double.
        return ((self.matrix_ms() / 1000.0) / 2.0).tolist()

    def one_way_floor(self) -> float:
        """Smallest one-way delay (seconds) between distinct replicas.

        Read off the region table: the smallest base entry between two
        populated regions, and ``LOCAL_RTT_MS`` only if some region holds
        two replicas.
        """
        if len(self.cities) < 2:
            return 0.0
        counts = np.bincount(self._region_arr, minlength=self.region_count)
        populated = np.flatnonzero(counts)
        floor_ms = LOCAL_RTT_MS if counts.max() > 1 else math.inf
        if populated.shape[0] > 1:
            table = self._base_ms[np.ix_(populated, populated)]
            off_diagonal = table[~np.eye(populated.shape[0], dtype=bool)]
            floor_ms = min(floor_ms, float(off_diagonal.min()))
        return (floor_ms / 1000.0) / 2.0
