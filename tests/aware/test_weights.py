"""Tests for Wheat's weighting scheme, including quorum intersection."""

import itertools

import pytest

from repro.aware.weights import WeightConfiguration, WheatParameters


def test_parameters_for_minimal_system():
    params = WheatParameters(n=4, f=1)
    assert params.delta_replicas == 0
    assert params.vmax == 1.0  # no spare replicas: plain PBFT
    assert params.quorum_weight == 3


def test_parameters_with_spares():
    params = WheatParameters(n=21, f=6)
    assert params.delta_replicas == 2
    assert params.vmax == pytest.approx(1 + 2 / 6)
    assert params.vmax_count == 12
    assert params.quorum_weight == 2 * (6 + 2) + 1


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        WheatParameters(n=6, f=2)
    with pytest.raises(ValueError):
        WheatParameters(n=4, f=0)


def test_configuration_validates_vmax_count():
    with pytest.raises(ValueError):
        WeightConfiguration(n=7, f=2, leader=0, vmax_replicas=frozenset({1, 2}))
    # n=8, f=2 has one spare replica (Δ=1): Vmax is genuinely heavier.
    config = WeightConfiguration(
        n=8, f=2, leader=0, vmax_replicas=frozenset({1, 2, 3, 4})
    )
    assert config.weights()[1] > config.weights()[5]
    # At n=3f+1 (Δ=0), weights degenerate to uniform, as in Wheat.
    flat = WeightConfiguration(
        n=7, f=2, leader=0, vmax_replicas=frozenset({1, 2, 3, 4})
    )
    assert flat.weights()[1] == flat.weights()[5]


def test_special_replicas_leader_plus_vmax():
    config = WeightConfiguration(
        n=7, f=2, leader=6, vmax_replicas=frozenset({1, 2, 3, 4})
    )
    assert config.special_replicas() == {6, 1, 2, 3, 4}
    assert config.participants() == frozenset(range(7))


def quorums(config):
    """All minimal-by-inclusion replica sets reaching quorum weight."""
    n = config.n
    weights = config.weights()
    result = []
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if sum(weights[r] for r in subset) >= config.quorum_weight:
                if not any(set(q) <= set(subset) for q in result):
                    result.append(subset)
    return result


@pytest.mark.parametrize("n,f", [(4, 1), (5, 1), (6, 1), (7, 2)])
def test_quorum_intersection_safety(n, f):
    """Any two weighted quorums intersect in at least f+1 replicas'
    weight beyond what faulty replicas can contribute -- concretely, any
    two quorums share at least one replica outside every f-subset."""
    config = WeightConfiguration(
        n=n, f=f, leader=0, vmax_replicas=frozenset(range(2 * f))
    )
    all_quorums = quorums(config)
    assert all_quorums, "no quorum is reachable"
    for qa, qb in itertools.combinations(all_quorums, 2):
        common = set(qa) & set(qb)
        assert common, f"disjoint quorums {qa} and {qb}"
        # Intersection cannot be covered by any set of f replicas.
        for faulty in itertools.combinations(range(n), f):
            assert not common <= set(faulty), (
                f"quorums {qa}, {qb} intersect only in faulty {faulty}"
            )


def test_fast_quorum_smaller_with_weights():
    """With n > 3f+1, the 2f Vmax replicas + 1 form a quorum -- fewer
    replicas than the unweighted majority quorum (the Wheat win)."""
    n, f = 21, 6
    config = WeightConfiguration(
        n=n, f=f, leader=0, vmax_replicas=frozenset(range(12))
    )
    weights = config.weights()
    fast = list(range(12)) + [12]
    assert sum(weights[r] for r in fast) >= config.quorum_weight
    assert len(fast) == 13
    unweighted_quorum = -(-(n + f + 1) // 2)  # ceil
    assert len(fast) < unweighted_quorum == 14


def test_wire_size_reasonable():
    config = WeightConfiguration(
        n=7, f=2, leader=0, vmax_replicas=frozenset({1, 2, 3, 4})
    )
    assert 0 < config.wire_size < 200
