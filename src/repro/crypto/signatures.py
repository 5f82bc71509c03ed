"""Attributable signatures over protocol payloads.

A :class:`KeyRegistry` issues one secret per replica and verifies
signatures on their behalf, standing in for a PKI.  Signatures are
HMAC-SHA256 digests, deterministic for a (signer, payload) pair, which is
exactly the property misbehavior proofs rely on: the same replica signing
two conflicting payloads for the same round is cryptographic evidence of
equivocation.

Byte sizes are accounted as Ed25519-equivalent so that the overhead study
(Fig. 13) reports realistic wire sizes.
"""

from __future__ import annotations

import hashlib
import hmac
from typing import Any, Dict, NamedTuple

SIGNATURE_SIZE = 64  # Ed25519 signature bytes, used for size accounting.


class InvalidSignature(Exception):
    """Raised when verification of a signature or certificate fails."""


def canonical_bytes(payload: Any) -> bytes:
    """Stable byte encoding of a payload for signing.

    Payloads are built from primitives, tuples and frozen dataclasses; we
    rely on ``repr`` being deterministic for those.  Dicts and sets are
    rejected: their ``repr`` depends on insertion order (dicts) or hash
    iteration order (sets/frozensets), so the same logical payload could
    produce different bytes on different replicas.
    """
    if isinstance(payload, bytes):
        return payload
    if isinstance(payload, dict):
        raise TypeError("sign tuples or dataclasses, not dicts")
    if isinstance(payload, (set, frozenset)):
        raise TypeError("sign tuples or dataclasses, not sets (unordered repr)")
    return repr(payload).encode()


class Signature(NamedTuple):
    """A signature attributable to ``signer`` over some payload.

    A ``NamedTuple`` rather than a dataclass: aggregates construct one
    per signer per certificate, which makes construction cost matter.
    """

    signer: int
    digest: bytes

    wire_size = SIGNATURE_SIZE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Signature(signer={self.signer}, {self.digest.hex()[:12]}…)"


class KeyRegistry:
    """Per-replica signing keys plus verification, standing in for a PKI.

    Parameters
    ----------
    n:
        Number of replicas; ids 0..n-1 get keys.  Additional ids (e.g.
        clients) can be enrolled with :meth:`enroll`.
    seed:
        Domain-separates registries so independent simulations cannot
        accidentally cross-verify.
    """

    def __init__(self, n: int, seed: int = 0):
        self._keys: Dict[int, bytes] = {}
        self._seed = seed
        #: (signer, canonical bytes) -> digest.  HMAC is deterministic per
        #: (key, payload), so caching is semantics-preserving; it memoizes
        #: both signing and verification (a verify recomputes the expected
        #: digest for the same pair).  The cache is keyed by the canonical
        #: *bytes*, never by the payload object: ``1``, ``1.0`` and
        #: ``True`` compare equal (one dict slot) yet canonicalise to
        #: different bytes, so a payload-keyed cache would conflate them.
        self._digest_cache: Dict[tuple, bytes] = {}
        for replica_id in range(n):
            self.enroll(replica_id)

    def enroll(self, node_id: int) -> None:
        """Create a key for ``node_id`` (idempotent)."""
        if node_id not in self._keys:
            material = f"repro-key:{self._seed}:{node_id}".encode()
            self._keys[node_id] = hashlib.sha256(material).digest()

    def missing_keys(self, signers: frozenset) -> frozenset:
        """The members of ``signers`` that hold no key, in one C-level
        pass (``difference`` probes a dict argument per element of the
        set instead of iterating the dict)."""
        return signers.difference(self._keys)

    # ------------------------------------------------------------------
    # Signing / verification
    # ------------------------------------------------------------------
    def _digest_for(self, signer: int, canonical: bytes) -> bytes:
        """The (memoized) HMAC digest of ``signer`` over ``canonical``."""
        cache_key = (signer, canonical)
        digest = self._digest_cache.get(cache_key)
        if digest is None:
            # One-shot C implementation; same digest as hmac.new(...),
            # roughly half the cost for these short payloads.
            digest = hmac.digest(self._keys[signer], canonical, "sha256")
            self._digest_cache[cache_key] = digest
        return digest

    def sign(self, signer: int, payload: Any) -> Signature:
        """Sign ``payload`` with ``signer``'s key."""
        if signer not in self._keys:
            raise KeyError(signer)
        return Signature(signer, self._digest_for(signer, canonical_bytes(payload)))

    def sign_many(self, signers: Any, payload: Any) -> tuple:
        """Sign the same ``payload`` with several keys (ascending signer id).

        Equivalent to ``tuple(sign(s, payload) for s in sorted(set(signers)))``
        but canonicalises the payload once instead of once per signer --
        the aggregate-certificate hot path in HotStuff and Kauri.
        """
        canonical = canonical_bytes(payload)
        digest_for = self._digest_for
        keys = self._keys
        ordered = sorted(
            signers if isinstance(signers, (set, frozenset)) else set(signers)
        )
        for signer in ordered:
            if signer not in keys:
                raise KeyError(signer)
        new = tuple.__new__  # skip the NamedTuple __new__ wrapper frame
        return tuple(
            [new(Signature, (signer, digest_for(signer, canonical))) for signer in ordered]
        )

    def verify(self, signature: Signature, payload: Any) -> bool:
        """Check that ``signature`` is valid for ``payload``."""
        if signature.signer not in self._keys:
            return False
        expected = self._digest_for(signature.signer, canonical_bytes(payload))
        return hmac.compare_digest(expected, signature.digest)

    def forge(self, signer: int, payload: Any) -> Signature:
        """Produce an *invalid* signature claiming to be from ``signer``.

        Used by fault injectors: the digest is wrong by construction, so
        any verifier will reject it and can raise a complaint.
        """
        bogus = hashlib.sha256(b"forged:" + canonical_bytes(payload)).digest()
        return Signature(signer=signer, digest=bogus)
