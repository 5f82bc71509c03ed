"""Tests for the latency model's region table: base RTTs between regions
and their agreement with the per-pair formula."""

import random

import numpy as np
import pytest

from oracles import (
    CHECK_MAX_N,
    LatencyDivergence,
    pair_rtt_ms,
    verify_against_dense,
)
from repro.net.cities import ALL_CITIES
from repro.net.latency_model import (
    LOCAL_RTT_MS,
    ROW_CACHE_SIZE,
    LatencyModel,
)


def _cities(n, seed=7):
    """n cities drawn like random_world_deployment: unique pool first,
    then repeats (shared regions)."""
    rng = random.Random(seed)
    pool = list(ALL_CITIES)
    rng.shuffle(pool)
    if n <= len(pool):
        return pool[:n]
    return pool + [rng.choice(pool) for _ in range(n - len(pool))]


def _formula_ms(cities):
    """The RTT matrix (ms) from the scalar formula, upper triangle
    mirrored."""
    n = len(cities)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = pair_rtt_ms(cities[i], cities[j])
    return out


def test_bit_identical_to_dense_small():
    cities = _cities(73)
    model = LatencyModel(cities)
    reference = _formula_ms(cities)
    for a in range(73):
        for b in range(73):
            expect = float(reference[a, b])
            assert model.rtt_ms(a, b) == expect
            assert model.one_way(a, b) == (expect / 1000.0) / 2.0


def test_bit_identical_matrices_full_pool():
    cities = _cities(311)  # past the 220-city pool: shared regions exist
    model = LatencyModel(cities)
    reference = _formula_ms(cities)
    assert np.array_equal(model.matrix_ms(), reference)
    assert np.array_equal(model.matrix_seconds(), reference / 1000.0)


def test_row_matches_scalar_bitwise():
    cities = _cities(150)
    model = LatencyModel(cities)
    matrix = model.matrix_ms()
    for src in (0, 42, 149):
        row = model.one_way_row(src)
        assert row[src] == 0.0
        for dst in range(150):
            assert row[dst] == model.one_way(src, dst)
            assert matrix[src, dst] == model.rtt_ms(src, dst)


def test_colocated_replicas_local_rtt():
    cities = _cities(230)  # > 220: guaranteed repeats
    model = LatencyModel(cities)
    seen = {}
    pairs = 0
    for i, city in enumerate(cities):
        key = (city.lat, city.lon)
        if key in seen:
            assert model.rtt_ms(seen[key], i) == LOCAL_RTT_MS
            pairs += 1
        else:
            seen[key] = i
    assert pairs >= 10


def test_memory_shape_is_regions_squared():
    cities = _cities(1024)
    model = LatencyModel(cities)
    assert model.region_count == 220
    assert model._base_ms.shape == (220, 220)
    assert len(model) == 1024


def test_row_cache_bounded():
    cities = _cities(300)  # past EAGER_ROWS_MAX_N: rows are built lazily
    provider = LatencyModel(cities).one_way_provider()
    assert provider.rows is None
    for src in range(300):
        provider.row(src)
    assert len(provider._cache) == ROW_CACHE_SIZE
    # Cached row is reused (identity, not just equality).
    row = provider.row(299)
    assert provider.row(299) is row


def test_verify_against_dense_passes():
    cities = _cities(256)
    model = LatencyModel(cities)
    compared = verify_against_dense(model, random.Random(3), samples=512)
    assert compared > 512


def test_verify_against_dense_caps_n():
    cities = _cities(CHECK_MAX_N + 1)
    model = LatencyModel(cities)
    with pytest.raises(ValueError, match="caps at"):
        verify_against_dense(model)


def test_verify_detects_divergence():
    cities = _cities(40)
    model = LatencyModel(cities)
    model._base_ms[1, 2] += 0.25  # one pair of regions drifts
    model._base_ms[2, 1] += 0.25
    with pytest.raises(LatencyDivergence):
        verify_against_dense(model, random.Random(0))


def test_cities_are_the_whole_constructor():
    with pytest.raises(TypeError):
        LatencyModel(_cities(4), offsets_km=[0.0, 0.0, 0.0, 0.0])


def test_provider_row_and_scalar():
    cities = _cities(50)
    model = LatencyModel(cities)
    provider = model.one_way_provider()
    assert provider(3, 17) == model.one_way(3, 17)
    assert provider.row(3) == model.one_way_row(3)
    assert provider.rows[3] is provider.row(3)  # n <= EAGER_ROWS_MAX_N


def test_one_way_floor_bounds_every_pair():
    cities = _cities(150)
    model = LatencyModel(cities)
    floor = model.one_way_floor()
    assert floor > 0.0
    provider = model.one_way_provider()
    assert provider.delay_floor() == floor
    rng = random.Random(11)
    for _ in range(200):
        a, b = rng.randrange(150), rng.randrange(150)
        if a != b:
            assert model.one_way(a, b) >= floor


def test_one_way_floor_degenerate_single_city():
    model = LatencyModel(_cities(1))
    assert model.one_way_floor() == 0.0
