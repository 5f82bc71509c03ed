"""Tests for named deployments and the Stellar validator set."""

import random

import numpy as np
import pytest

from repro.experiments.runner import resolve_deployment
from repro.net.deployments import (
    EUROPE21,
    GLOBAL73,
    NA_EU43,
    deployment_for,
    random_world_deployment,
)
from repro.net.stellar import STELLAR_VALIDATORS, stellar_deployment


def test_deployment_sizes_match_paper():
    assert len(EUROPE21) == 21
    assert len(NA_EU43) == 43
    assert len(GLOBAL73) == 73
    assert len(STELLAR_VALIDATORS) == 56


def test_named_deployments_resolve():
    for name, n in (
        ("Europe21", 21),
        ("NA-EU43", 43),
        ("Global73", 73),
        ("Stellar56", 56),
    ):
        deployment = deployment_for(name)
        assert deployment.n == n
        assert len(deployment.latency) == n


@pytest.mark.parametrize(
    "name", ["Mars1", "topo-8", "topo-8@g.gml", "world-8-j5", "wonderproxy-8-j5"]
)
def test_unknown_deployment_raises(name):
    # Every deployment is a list of cities: no topology graphs and no
    # placement jitter.
    for build in (deployment_for, resolve_deployment):
        with pytest.raises(ValueError, match="unknown deployment"):
            build(name)


def test_europe21_contains_nuremberg():
    assert "Nuremberg" in EUROPE21  # Fig. 7's measured client city


def test_nested_deployments():
    assert set(EUROPE21) <= set(NA_EU43) <= set(GLOBAL73)


def test_stellar_concentration_us_eu():
    """Stellar's validator map is US/EU heavy."""
    regions = [city.region for city in STELLAR_VALIDATORS]
    us_eu = sum(1 for region in regions if region in ("NA", "EU"))
    assert us_eu / len(regions) > 0.6


def test_random_world_deployment_deterministic():
    a = random_world_deployment(30, random.Random(5))
    b = random_world_deployment(30, random.Random(5))
    assert [c.name for c in a.cities] == [c.name for c in b.cities]


def test_random_world_deployment_oversized():
    deployment = random_world_deployment(300, random.Random(1))
    assert deployment.n == 300


def test_stellar_deployment_latency_built():
    deployment = stellar_deployment()
    assert deployment.latency.rtt_ms(0, deployment.n - 1) >= 0.0


# ----------------------------------------------------------------------
# world-N at scale (n > 220 repeats cities: the densified regime)
# ----------------------------------------------------------------------
def test_world_deployment_deterministic_beyond_pool():
    a = random_world_deployment(260, random.Random(9))
    b = random_world_deployment(260, random.Random(9))
    assert [c.name for c in a.cities] == [c.name for c in b.cities]
    pairs = random.Random(1).sample(
        [(i, j) for i in range(0, 260, 13) for j in range(1, 260, 17)], 50
    )
    for i, j in pairs:
        assert a.latency.rtt_ms(i, j) == b.latency.rtt_ms(i, j)


def test_world_deployment_seed_changes_placement():
    a = random_world_deployment(260, random.Random(9))
    b = random_world_deployment(260, random.Random(10))
    assert [c.name for c in a.cities] != [c.name for c in b.cities]


def test_world_deployment_covers_every_region():
    from repro.net.deployments import ALL_CITIES

    deployment = random_world_deployment(260, random.Random(3))
    assert {c.region for c in deployment.cities} == {
        c.region for c in ALL_CITIES
    }


def test_colocated_replicas_see_local_rtt_at_scale():
    from repro.net.latency_model import LOCAL_RTT_MS

    deployment = random_world_deployment(260, random.Random(3))
    by_location = {}
    for index, city in enumerate(deployment.cities):
        by_location.setdefault((city.lat, city.lon), []).append(index)
    repeats = [ids for ids in by_location.values() if len(ids) > 1]
    assert repeats  # n > 220 must reuse cities
    for ids in repeats:
        first, second = ids[0], ids[1]
        assert deployment.latency.rtt_ms(first, second) == LOCAL_RTT_MS


def test_world_and_wonderproxy_resolve_to_equal_models():
    # One branch, two spellings: same draw, same doubles, and each keeps
    # the name it was asked for.
    for n in (16, 300):
        world = resolve_deployment(f"world-{n}", seed=2)
        older = resolve_deployment(f"wonderproxy-{n}", seed=2)
        assert (world.name, older.name) == (f"world-{n}", f"wonderproxy-{n}")
        assert world.cities == older.cities
        assert np.array_equal(world.latency.matrix_ms(), older.latency.matrix_ms())


# ----------------------------------------------------------------------
# Bad sizes are refused at construction, naming the argument
# ----------------------------------------------------------------------
def test_random_world_deployment_rejects_negative_n():
    with pytest.raises(ValueError, match="n must be >= 1"):
        random_world_deployment(-3)


def test_random_world_deployment_rejects_zero_n():
    with pytest.raises(ValueError, match="n must be >= 1"):
        random_world_deployment(0)
