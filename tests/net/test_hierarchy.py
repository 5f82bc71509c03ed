"""Tests for the hierarchical (region-tiered) latency substrate."""

import random

import numpy as np
import pytest

from oracles import (
    CHECK_MAX_N,
    LatencyDivergence,
    verify_against_dense,
    verify_self_consistent,
)
from repro.net.cities import ALL_CITIES
from repro.net.hierarchy import ROW_CACHE_SIZE, HierarchicalLatencyModel
from repro.net.latency_model import LOCAL_RTT_MS, MS_PER_KM, LatencyModel


def _cities(n, seed=7):
    """n cities drawn like random_world_deployment: unique pool first,
    then repeats (shared regions)."""
    rng = random.Random(seed)
    pool = list(ALL_CITIES)
    rng.shuffle(pool)
    if n <= len(pool):
        return pool[:n]
    return pool + [rng.choice(pool) for _ in range(n - len(pool))]


def test_bit_identical_to_dense_small():
    cities = _cities(73)
    hier = HierarchicalLatencyModel(cities)
    dense = LatencyModel(cities)
    for a in range(73):
        for b in range(73):
            assert hier.one_way(a, b) == dense.one_way(a, b)
            assert hier.rtt_ms(a, b) == dense.rtt_ms(a, b)


def test_bit_identical_matrices_full_pool():
    cities = _cities(311)  # past the 220-city pool: shared regions exist
    hier = HierarchicalLatencyModel(cities)
    dense = LatencyModel(cities)
    assert np.array_equal(hier.matrix_ms(), dense.matrix_ms())
    assert np.array_equal(hier.matrix_seconds(), dense.matrix_seconds())


def test_row_matches_scalar_bitwise():
    cities = _cities(150)
    offsets = [float(i % 7) * 3.5 for i in range(150)]
    hier = HierarchicalLatencyModel(cities, offsets_km=offsets)
    for src in (0, 42, 149):
        row = hier.row(src)
        assert row[src] == 0.0
        for dst in range(150):
            assert row[dst] == hier.one_way(src, dst)


def test_colocated_replicas_local_rtt():
    cities = _cities(230)  # > 220: guaranteed repeats
    hier = HierarchicalLatencyModel(cities)
    seen = {}
    pairs = 0
    for i, city in enumerate(cities):
        key = (city.lat, city.lon)
        if key in seen:
            assert hier.rtt_ms(seen[key], i) == LOCAL_RTT_MS
            pairs += 1
        else:
            seen[key] = i
    assert pairs >= 10


def test_offsets_add_to_local_and_base():
    cities = _cities(5)
    offsets = [10.0, 20.0, 0.0, 0.0, 0.0]
    hier = HierarchicalLatencyModel(cities + [cities[0]], offsets_km=offsets + [40.0])
    # Replica 5 shares replica 0's region with a 40 km offset.
    assert hier.rtt_ms(0, 5) == LOCAL_RTT_MS + (10.0 + 40.0) * MS_PER_KM
    base = hier.rtt_ms(2, 3)
    assert hier.rtt_ms(0, 1) == HierarchicalLatencyModel(cities).rtt_ms(0, 1) + (
        10.0 + 20.0
    ) * MS_PER_KM
    assert base == LatencyModel(cities).rtt_ms(2, 3)


def test_memory_shape_is_regions_squared():
    cities = _cities(1024)
    hier = HierarchicalLatencyModel(cities)
    assert hier.region_count == 220
    assert hier._base_ms.shape == (220, 220)
    assert len(hier) == 1024


def test_row_cache_bounded():
    cities = _cities(300)
    hier = HierarchicalLatencyModel(cities)
    for src in range(300):
        hier.row(src)
    assert len(hier._row_cache) == ROW_CACHE_SIZE
    # Cached row is reused (identity, not just equality).
    row = hier.row(299)
    assert hier.row(299) is row


def test_stats_ms_matches_dense():
    cities = _cities(100)
    hier = HierarchicalLatencyModel(cities)
    dense = LatencyModel(cities)
    got = hier.stats_ms()
    expect = dense.stats_ms()
    assert got["min"] == expect["min"]
    assert got["max"] == expect["max"]
    assert got["mean"] == pytest.approx(expect["mean"], rel=1e-12)


def test_verify_against_dense_passes():
    cities = _cities(256)
    hier = HierarchicalLatencyModel(cities)
    compared = verify_against_dense(hier, random.Random(3), samples=512)
    assert compared > 512


def test_verify_against_dense_caps_n():
    cities = _cities(CHECK_MAX_N + 1)
    hier = HierarchicalLatencyModel(cities)
    with pytest.raises(ValueError, match="caps at"):
        verify_against_dense(hier)


def test_verify_against_dense_rejects_offsets():
    cities = _cities(10)
    hier = HierarchicalLatencyModel(cities, offsets_km=[1.0] * 10)
    with pytest.raises(ValueError, match="zero offsets"):
        verify_against_dense(hier)


def test_verify_detects_divergence():
    cities = _cities(40)
    hier = HierarchicalLatencyModel(cities)
    hier._base_rows[1][2] += 0.25  # corrupt the scalar path only
    hier._base_rows[2][1] += 0.25
    with pytest.raises(LatencyDivergence):
        verify_against_dense(hier, random.Random(0))


def test_verify_self_consistent():
    cities = _cities(230)
    offsets = [float(i % 11) for i in range(230)]
    hier = HierarchicalLatencyModel(cities, offsets_km=offsets)
    assert verify_self_consistent(hier, random.Random(2), samples=512) == 512


def test_explicit_regions_and_base():
    base = np.array([[0.0, 50.0], [50.0, 0.0]])
    cities = _cities(4)
    hier = HierarchicalLatencyModel(
        cities, regions=[0, 0, 1, 1], base_ms=base
    )
    assert hier.rtt_ms(0, 2) == 50.0
    assert hier.rtt_ms(0, 1) == LOCAL_RTT_MS
    assert hier.one_way(0, 0) == 0.0


def test_validation_errors():
    cities = _cities(4)
    with pytest.raises(ValueError, match="together"):
        HierarchicalLatencyModel(cities, regions=[0, 0, 0, 0])
    with pytest.raises(ValueError, match="non-negative"):
        HierarchicalLatencyModel(cities, offsets_km=[-1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="offsets"):
        HierarchicalLatencyModel(cities, offsets_km=[0.0])
    with pytest.raises(ValueError, match="out of range"):
        HierarchicalLatencyModel(
            cities, regions=[0, 1, 2, 9], base_ms=np.zeros((3, 3))
        )


def test_provider_row_and_scalar():
    cities = _cities(50)
    hier = HierarchicalLatencyModel(cities)
    provider = hier.one_way_provider()
    assert provider(3, 17) == hier.one_way(3, 17)
    assert provider.row(3) == hier.row(3)
    assert not hasattr(provider, "rows")


def test_one_way_floor_bounds_every_pair():
    cities = _cities(150)
    offsets = [float(i % 7) * 3.5 for i in range(150)]
    hier = HierarchicalLatencyModel(cities, offsets_km=offsets)
    floor = hier.one_way_floor()
    assert floor > 0.0
    provider = hier.one_way_provider()
    assert provider.delay_floor() == floor
    rng = random.Random(11)
    for _ in range(200):
        a, b = rng.randrange(150), rng.randrange(150)
        if a != b:
            assert hier.one_way(a, b) >= floor


def test_one_way_floor_degenerate_single_city():
    hier = HierarchicalLatencyModel(_cities(1))
    assert hier.one_way_floor() == 0.0
