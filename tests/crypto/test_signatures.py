"""Tests for the signature substrate."""

import pytest

from repro.crypto.signatures import (
    SIGNATURE_SIZE,
    KeyRegistry,
)


def test_sign_verify_roundtrip():
    registry = KeyRegistry(4)
    signature = registry.sign(2, ("vote", 7))
    assert registry.verify(signature, ("vote", 7))


def test_verify_rejects_wrong_payload():
    registry = KeyRegistry(4)
    signature = registry.sign(2, ("vote", 7))
    assert not registry.verify(signature, ("vote", 8))


def test_verify_rejects_wrong_signer_claim():
    registry = KeyRegistry(4)
    signature = registry.sign(2, "payload")
    forged = type(signature)(signer=3, digest=signature.digest)
    assert not registry.verify(forged, "payload")


def test_forge_produces_invalid_signature():
    registry = KeyRegistry(4)
    forged = registry.forge(1, "payload")
    assert not registry.verify(forged, "payload")


def test_registries_with_different_seeds_do_not_cross_verify():
    registry_a = KeyRegistry(4, seed=1)
    registry_b = KeyRegistry(4, seed=2)
    signature = registry_a.sign(0, "x")
    assert not registry_b.verify(signature, "x")


def test_enroll_is_idempotent_and_extends():
    registry = KeyRegistry(2)
    registry.enroll(10)
    registry.enroll(10)
    signature = registry.sign(10, "client")
    assert registry.verify(signature, "client")


def test_signature_deterministic_and_sized():
    registry = KeyRegistry(2)
    first = registry.sign(0, ("a", 1))
    second = registry.sign(0, ("a", 1))
    assert first == second
    assert first.wire_size == SIGNATURE_SIZE


def test_dict_payloads_rejected():
    registry = KeyRegistry(2)
    with pytest.raises(TypeError):
        registry.sign(0, {"a": 1})


def test_set_and_frozenset_payloads_rejected():
    """Sets repr in hash-iteration order: a latent nondeterminism hazard."""
    registry = KeyRegistry(2)
    with pytest.raises(TypeError, match="unordered"):
        registry.sign(0, {1, 2, 3})
    with pytest.raises(TypeError, match="unordered"):
        registry.sign(0, frozenset({1, 2}))
    with pytest.raises(TypeError, match="unordered"):
        registry.verify(registry.sign(0, "x"), frozenset({1}))


def test_memoized_digests_do_not_conflate_equal_but_distinct_payloads():
    """1, 1.0 and True compare equal (one dict slot) but canonicalise to
    different bytes; the digest memo must be keyed by the bytes, never by
    the payload object."""
    registry = KeyRegistry(2)
    sig_int = registry.sign(0, 1)
    sig_float = registry.sign(0, 1.0)
    sig_bool = registry.sign(0, True)
    assert sig_int.digest != sig_float.digest
    assert sig_int.digest != sig_bool.digest
    assert registry.verify(sig_int, 1)
    assert not registry.verify(sig_int, 1.0)
    assert not registry.verify(sig_float, True)


def test_verification_is_memoized_consistently():
    """Repeated verifies (cache hits) agree with the first (cache miss),
    for both accepting and rejecting outcomes."""
    registry = KeyRegistry(2)
    signature = registry.sign(1, ("vote", 9))
    for _ in range(3):
        assert registry.verify(signature, ("vote", 9))
        assert not registry.verify(signature, ("vote", 10))
    forged = type(signature)(signer=1, digest=b"\x00" * 32)
    for _ in range(2):
        assert not registry.verify(forged, ("vote", 9))


def test_sign_many_matches_individual_signs():
    registry = KeyRegistry(5)
    sigs = registry.sign_many({3, 1, 4, 1}, "payload")
    assert [s.signer for s in sigs] == [1, 3, 4]
    for sig in sigs:
        assert sig == registry.sign(sig.signer, "payload")
    with pytest.raises(KeyError):
        registry.sign_many({1, 99}, "payload")


def test_sign_unknown_signer_raises_keyerror():
    registry = KeyRegistry(2)
    with pytest.raises(KeyError):
        registry.sign(7, "payload")
