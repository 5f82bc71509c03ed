"""Tests for the RTT model and the paper's latency envelope."""

import pickle
import random

import numpy as np
import pytest

from oracles import pair_rtt_ms
from repro.experiments.runner import resolve_deployment
from repro.net import latency_model
from repro.net.cities import city_by_name
from repro.net.deployments import deployment_for, random_world_deployment
from repro.net.latency_model import LatencyModel

NAMED = ("Europe21", "NA-EU43", "Global73", "Stellar56")


def test_symmetry_and_zero_diagonal(europe21):
    model = europe21.latency
    matrix = model.matrix_ms()
    assert np.allclose(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 0)


def test_colocated_replicas_see_local_rtt():
    city = city_by_name("Frankfurt")
    model = LatencyModel([city, city])
    assert model.rtt_ms(0, 1) == pytest.approx(1.0)


def _distinct_pairs_ms(deployment):
    """RTTs of every distinct replica pair, in milliseconds."""
    return deployment.latency.matrix_ms()[np.triu_indices(deployment.n, k=1)]


def test_intercontinental_envelope_matches_paper(global73):
    """§7.3: intercontinental delays range 150-250 ms (+1 ms local)."""
    pairs = _distinct_pairs_ms(global73)
    assert pairs.max() <= 260.0
    assert pairs.max() >= 150.0  # some pair is genuinely intercontinental


def test_european_pairs_are_fast(europe21):
    pairs = _distinct_pairs_ms(europe21)
    assert pairs.max() < 60.0
    assert pairs.min() >= 1.0


def test_one_way_is_half_rtt(europe21):
    model = europe21.latency
    assert model.one_way(0, 1) == pytest.approx(model.rtt(0, 1) / 2.0)


def test_monotone_with_distance():
    london = city_by_name("London")
    paris = city_by_name("Paris")
    tokyo = city_by_name("Tokyo")
    model = LatencyModel([london, paris, tokyo])
    assert model.rtt_ms(0, 1) < model.rtt_ms(0, 2)


def test_vectorized_matrix_equals_scalar_loop_at_n64():
    """The vectorized constructor must be *bit-identical* to the scalar
    pair loop: link delays feed event timestamps, so even a last-ulp
    difference would change seeded runs."""
    model = random_world_deployment(64, random.Random(7)).latency
    n = len(model)
    scalar = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            rtt = pair_rtt_ms(model.cities[i], model.cities[j])
            scalar[i, j] = rtt
            scalar[j, i] = rtt
    assert np.array_equal(model.matrix_ms(), scalar)  # exact, not allclose


def test_vectorized_matrix_handles_duplicate_and_tiny_inputs():
    frankfurt = city_by_name("Frankfurt")
    paris = city_by_name("Paris")
    # Co-located pair plus one distinct city, exact against the scalar rule.
    model = LatencyModel([frankfurt, frankfurt, paris])
    assert model.rtt_ms(0, 1) == pair_rtt_ms(frankfurt, frankfurt)
    assert model.rtt_ms(0, 2) == pair_rtt_ms(frankfurt, paris)
    # Degenerate sizes must not blow up.
    assert LatencyModel([]).matrix_ms().shape == (0, 0)
    assert LatencyModel([paris]).matrix_ms().shape == (1, 1)


def test_one_way_rows_match_one_way_exactly(europe21):
    model = europe21.latency
    rows = model.one_way_rows()
    n = len(model)
    for a in range(n):
        for b in range(n):
            assert rows[a][b] == model.one_way(a, b)


# ----------------------------------------------------------------------
# The delay provider: eager list rows up to EAGER_ROWS_MAX_N, LRU rows past it
# ----------------------------------------------------------------------
def _lazy_provider(model, monkeypatch):
    monkeypatch.setattr(latency_model, "EAGER_ROWS_MAX_N", 0)
    return model.one_way_provider()


def test_eager_provider_below_threshold(europe21):
    provider = europe21.latency.one_way_provider()
    assert provider.rows == europe21.latency.one_way_rows()


def test_provider_switches_lazy_past_threshold(europe21, monkeypatch):
    monkeypatch.setattr(latency_model, "EAGER_ROWS_MAX_N", 20)
    provider = europe21.latency.one_way_provider()
    assert provider.rows is None


def test_provider_representation_follows_n():
    # Every ledger workload keeps the row form it had: eager nested
    # lists for the named sets, the campaign's wonderproxy-4 and the
    # role-search draws (n <= 211); LRU rows for the n = 512 scale row.
    eager = [deployment_for(name) for name in ("Europe21", "Global73")] + [
        resolve_deployment("wonderproxy-4", seed=1),
        resolve_deployment("wonderproxy-16", seed=1),
        random_world_deployment(211, random.Random(3)),
    ]
    for deployment in eager:
        assert deployment.one_way.rows is not None, deployment.name
    for name in ("world-512", "world-1024"):
        assert resolve_deployment(name, seed=1).one_way.rows is None, name


def test_lazy_provider_bit_equal_to_one_way(europe21, monkeypatch):
    # The LRU rows and the eager rows are two gathers of one table;
    # every value must equal the scalar one_way chain bit-for-bit.
    model = europe21.latency
    eager = model.one_way_provider()
    lazy = _lazy_provider(model, monkeypatch)
    n = len(model)
    for a in range(n):
        assert lazy.row(a) == eager.row(a)
        for b in range(n):
            assert lazy(a, b) == model.one_way(a, b) == eager(a, b)


@pytest.mark.parametrize("n", [300, 512])
def test_float64_rows_equal_the_list_rows(n):
    # The store's send path gathers from row_array, the Python loops
    # index row: every source must see the same doubles in both.
    provider = resolve_deployment(f"world-{n}", seed=1).one_way
    for src in range(n):
        array = provider.row_array(src)
        assert array.dtype == np.float64
        assert array.tolist() == provider.row(src)


def test_lazy_row_cache_bounded_and_consistent(europe21, monkeypatch):
    monkeypatch.setattr(latency_model, "ROW_CACHE_SIZE", 4)
    lazy = _lazy_provider(europe21.latency, monkeypatch)
    rows = [list(lazy.row(a)) for a in range(21)]
    assert len(lazy._cache) == 4
    # Evicted rows re-synthesize to identical values.
    assert [lazy.row(a) for a in range(21)] == rows


def test_lazy_provider_pickles_without_cache(monkeypatch):
    cities = [city_by_name("Paris"), city_by_name("Tokyo")]
    lazy = _lazy_provider(LatencyModel(cities), monkeypatch)
    lazy.row(0)
    clone = pickle.loads(pickle.dumps(lazy))
    assert not clone._cache
    assert clone(0, 1) == lazy(0, 1)
    assert clone.row(1) == lazy.row(1)


def test_model_pickles_its_table_and_rederives_rows(global73):
    # Neither the model nor its provider carries an O(n^2) view into a
    # checkpoint: both pickle their inputs and rebuild on load.
    blob = pickle.dumps(global73)
    assert len(blob) < len(pickle.dumps(global73.one_way.rows))
    clone = pickle.loads(blob)
    assert clone.one_way.rows == global73.one_way.rows
    assert clone.one_way.model is clone.latency
    assert np.array_equal(clone.latency.matrix_ms(), global73.latency.matrix_ms())


def test_model_pickle_rebuilds_shared_regions():
    # The model pickles only its cities; repeated locations must fold
    # back into the same regions on load.
    model = random_world_deployment(256, random.Random(5)).latency
    assert model.region_count < len(model)
    clone = pickle.loads(pickle.dumps(model))
    assert clone._region == model._region
    assert clone.region_count == model.region_count
    assert np.array_equal(clone.matrix_ms(), model.matrix_ms())


def _brute_floor(model):
    n = len(model)
    return min(model.one_way(a, b) for a in range(n) for b in range(n) if a != b)


def test_delay_floor_is_min_cross_node_one_way(europe21, monkeypatch):
    # The message plane caps its drain windows at this floor; it
    # must lower-bound every delay the provider can ever answer, and be
    # positive for any model with distinct replicas.
    model = europe21.latency
    want = _brute_floor(model)
    assert want > 0.0
    assert model.one_way_provider().delay_floor() == want
    assert _lazy_provider(model, monkeypatch).delay_floor() == want


def test_delay_floor_equals_brute_force_minimum():
    # Read off the region table, the floor is exact: the smallest base
    # entry between populated regions, and the local RTT only where a
    # region holds two replicas (the 256-city draw; Stellar56 repeats).
    models = [deployment_for(name).latency for name in NAMED] + [
        random_world_deployment(n, random.Random(n)).latency for n in (100, 256)
    ]
    for model in models:
        assert model.one_way_floor() == _brute_floor(model)


def test_delay_floor_degenerate_single_replica():
    city = city_by_name("Frankfurt")
    model = LatencyModel([city])
    assert model.one_way_provider().delay_floor() == 0.0


def test_delay_floor_colocated_pair_is_local_one_way():
    # Co-located replicas still pay the 1 ms local RTT, so the floor
    # stays positive even when every replica shares one city.
    city = city_by_name("Frankfurt")
    model = LatencyModel([city, city])
    floor = model.one_way_provider().delay_floor()
    assert floor == pytest.approx(0.0005)
    assert floor <= model.one_way(0, 1)
