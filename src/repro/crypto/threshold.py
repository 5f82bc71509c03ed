"""Aggregate signatures and quorum certificates.

Kauri aggregates votes up the tree and HotStuff forms quorum certificates;
OptiTree's extra misbehavior rule inspects aggregates for completeness
(every child position must contribute a vote *or* a suspicion).  We model
an aggregate as a verified multiset of per-signer signatures over a common
payload; wire size is accounted per contained signature so that the
overhead experiment sees realistic certificate sizes.
"""

from __future__ import annotations

from typing import Any, FrozenSet, Iterable, NamedTuple, Optional, Tuple

from repro.crypto.signatures import (
    SIGNATURE_SIZE,
    InvalidSignature,
    KeyRegistry,
    Signature,
)


class AggregateSignature:
    """A set of signatures over the same payload, e.g. tree vote aggregates.

    ``suspected`` carries the ids of children whose vote is replaced by a
    suspicion, as required by OptiTree's aggregation-completeness rule
    (§6.3): an aggregate covering ``b+1`` child positions must contain a
    vote or a suspicion for each position.

    Aggregates built through :func:`aggregate` are *lazily materialized*:
    the signer set is snapshotted (and validated against the registry)
    eagerly, but the per-signer HMAC signatures are only computed when
    ``signatures`` is first read.  Consensus hot paths touch ``signers``
    and ``wire_size`` alone -- both pure functions of the signer set --
    so a run that never verifies an aggregate never pays for signing it.
    HMAC signatures are deterministic per (signer, payload), so deferral
    is observably identical to eager construction.
    """

    __slots__ = ("payload", "suspected", "_signatures", "_signers", "_registry")

    def __init__(
        self,
        payload: Any,
        signatures: Tuple[Signature, ...],
        suspected: FrozenSet[int] = frozenset(),
    ):
        self.payload = payload
        self.suspected = frozenset(suspected)
        self._signatures: Optional[Tuple[Signature, ...]] = tuple(signatures)
        self._signers: Optional[FrozenSet[int]] = None
        self._registry: Optional[KeyRegistry] = None

    @classmethod
    def deferred(
        cls,
        registry: KeyRegistry,
        payload: Any,
        signers: Iterable[int],
        suspected: Iterable[int] = (),
    ) -> "AggregateSignature":
        """An aggregate whose signatures materialize on first access.

        The signer set is snapshotted now (callers pass live vote sets
        that keep growing) and every signer must already hold a key, so
        the deferral cannot surface errors later than eager signing would.
        """
        self = cls.__new__(cls)
        self.payload = payload
        self.suspected = frozenset(suspected)
        self._signatures = None
        signer_set = frozenset(signers)
        missing = registry.missing_keys(signer_set)
        if missing:
            raise KeyError(min(missing))
        self._signers = signer_set
        self._registry = registry
        return self

    @property
    def signatures(self) -> Tuple[Signature, ...]:
        sigs = self._signatures
        if sigs is None:
            sigs = self._registry.sign_many(self._signers, self.payload)
            self._signatures = sigs
        return sigs

    @property
    def signers(self) -> FrozenSet[int]:
        if self._signers is not None:
            return self._signers
        return frozenset(sig.signer for sig in self.signatures)

    @property
    def wire_size(self) -> int:
        count = (
            len(self._signers)
            if self._signatures is None
            else len(self._signatures)
        )
        return SIGNATURE_SIZE * count + 8 * len(self.suspected)

    def merge(self, other: "AggregateSignature") -> "AggregateSignature":
        """Combine two aggregates over the same payload."""
        if other.payload != self.payload:
            raise ValueError("cannot merge aggregates over different payloads")
        merged = {sig.signer: sig for sig in self.signatures}
        for sig in other.signatures:
            merged[sig.signer] = sig
        return AggregateSignature(
            payload=self.payload,
            signatures=tuple(sorted(merged.values(), key=lambda s: s.signer)),
            suspected=self.suspected | other.suspected,
        )

    def verify(self, registry: KeyRegistry) -> bool:
        """True iff every contained signature verifies over the payload."""
        return all(registry.verify(sig, self.payload) for sig in self.signatures)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AggregateSignature):
            return NotImplemented
        return (
            self.payload == other.payload
            and self.suspected == other.suspected
            and self.signatures == other.signatures
        )

    def __hash__(self) -> int:
        return hash((self.payload, self.signatures, self.suspected))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            f"signers={sorted(self._signers)}"
            if self._signatures is None
            else f"signatures={len(self._signatures)}"
        )
        return f"AggregateSignature(payload={self.payload!r}, {state})"


def aggregate(
    registry: KeyRegistry,
    payload: Any,
    signers: Iterable[int],
    suspected: Iterable[int] = (),
) -> AggregateSignature:
    """Build an aggregate over ``payload`` for ``signers`` (lazily signed)."""
    return AggregateSignature.deferred(registry, payload, signers, suspected)


class QuorumCertificate(NamedTuple):
    """Proof that a quorum voted for ``block_hash`` in ``view``.

    ``weight`` supports Wheat/Aware weighted quorums: the certificate
    records the summed voting weight so validity does not depend on the
    verifier re-deriving the weight assignment.  A ``NamedTuple``: QCs
    ride on every chained proposal, so field access is hot.
    """

    view: int
    block_hash: str
    aggregate: AggregateSignature
    weight: float

    @property
    def signers(self) -> FrozenSet[int]:
        return self.aggregate.signers

    @property
    def wire_size(self) -> int:
        return self.aggregate.wire_size + 16

    def verify(self, registry: KeyRegistry, required_weight: float) -> None:
        """Raise :class:`InvalidSignature` unless the QC is well-formed."""
        if not self.aggregate.verify(registry):
            raise InvalidSignature(f"QC for view {self.view} has bad signatures")
        if self.weight < required_weight:
            raise InvalidSignature(
                f"QC weight {self.weight} below required {required_weight}"
            )
