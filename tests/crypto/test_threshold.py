"""Tests for aggregates and quorum certificates."""

import pytest

from repro.crypto.signatures import InvalidSignature, KeyRegistry
from repro.crypto.threshold import AggregateSignature, QuorumCertificate, aggregate


def test_aggregate_signers_and_verify():
    registry = KeyRegistry(5)
    agg = aggregate(registry, "block-h", [0, 1, 3])
    assert agg.signers == {0, 1, 3}
    assert agg.verify(registry)


def test_aggregate_with_bad_signature_fails_verification():
    registry = KeyRegistry(5)
    agg = aggregate(registry, "block-h", [0, 1])
    tampered = AggregateSignature(
        payload="block-h",
        signatures=agg.signatures + (registry.forge(2, "block-h"),),
    )
    assert not tampered.verify(registry)


def test_merge_unions_signers():
    registry = KeyRegistry(5)
    a = aggregate(registry, "p", [0, 1])
    b = aggregate(registry, "p", [1, 2], suspected=[4])
    merged = a.merge(b)
    assert merged.signers == {0, 1, 2}
    assert merged.suspected == {4}
    assert merged.verify(registry)


def test_merge_different_payloads_rejected():
    registry = KeyRegistry(3)
    a = aggregate(registry, "p", [0])
    b = aggregate(registry, "q", [1])
    with pytest.raises(ValueError):
        a.merge(b)


def test_wire_size_grows_with_signers():
    registry = KeyRegistry(10)
    small = aggregate(registry, "p", [0])
    large = aggregate(registry, "p", range(10))
    assert large.wire_size > small.wire_size


def test_qc_verify_checks_weight_and_signatures():
    registry = KeyRegistry(4)
    agg = aggregate(registry, "h", [0, 1, 2])
    qc = QuorumCertificate(view=3, block_hash="h", aggregate=agg, weight=3.0)
    qc.verify(registry, required_weight=3.0)
    with pytest.raises(InvalidSignature):
        qc.verify(registry, required_weight=4.0)


def test_suspected_children_counted_in_coverage():
    registry = KeyRegistry(6)
    agg = aggregate(registry, "h", [0, 1], suspected=[2, 3])
    assert agg.signers | agg.suspected == {0, 1, 2, 3}


def test_lazy_aggregate_equals_eager_construction():
    """aggregate() defers signing; materialized signatures must be the
    ones eager per-signer signing produces, in ascending signer order."""
    registry = KeyRegistry(5)
    lazy = aggregate(registry, "block-h", {3, 0, 1})
    eager = AggregateSignature(
        payload="block-h",
        signatures=tuple(registry.sign(s, "block-h") for s in (0, 1, 3)),
    )
    assert lazy.wire_size == eager.wire_size  # before materialization
    assert lazy.signatures == eager.signatures
    assert lazy == eager
    assert lazy.verify(registry)


def test_lazy_aggregate_snapshots_signers():
    """Callers pass live vote sets that keep growing; the aggregate must
    freeze its signer set at construction."""
    registry = KeyRegistry(5)
    voters = {0, 1}
    agg = aggregate(registry, "h", voters)
    voters.add(2)
    assert agg.signers == {0, 1}
    assert [sig.signer for sig in agg.signatures] == [0, 1]


def test_lazy_aggregate_validates_signers_eagerly():
    registry = KeyRegistry(3)
    with pytest.raises(KeyError):
        aggregate(registry, "h", [0, 42])
    # Several unknown signers: the smallest is named, whatever the
    # set's iteration order.
    with pytest.raises(KeyError) as raised:
        aggregate(registry, "h", [99, 0, 42, 7])
    assert raised.value.args == (7,)
