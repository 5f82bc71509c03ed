"""Misbehavior sensor and monitor (§4.2.2).

Precise fault detection uses the proof-of-misbehavior technique: the
MisbehaviorSensor, integrated in the consensus engine, raises a signed
*complaint* when it observes a provable protocol violation (equivocation,
invalid signatures or aggregates, invalid complaints).  Every replica's
MisbehaviorMonitor verifies committed complaints; valid complaints add the
accused to the provably-faulty set ``F``, while an invalid complaint is
itself provable misbehavior by the *reporter*.

What constitutes misbehavior is protocol-specific (§4.2.2), so proofs are
polymorphic: each proof object knows how to verify itself against the key
registry.  OptiTree's extra aggregation-completeness rule (§6.3) is the
:class:`IncompleteAggregateProof`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Optional, Set

from repro.core.log import AppendOnlyLog, LogEntry
from repro.core.monitor import Monitor
from repro.core.records import ComplaintRecord
from repro.core.sensor import Sensor, SensorApp
from repro.crypto.signatures import SIGNATURE_SIZE, KeyRegistry, Signature
from repro.crypto.threshold import AggregateSignature


# ----------------------------------------------------------------------
# Proof objects
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EquivocationProof:
    """Two conflicting signed payloads from the same replica for one slot.

    Valid iff both signatures verify, both were produced by ``accused``
    for the same (view, round) slot, and the payloads differ.
    """

    accused: int
    view: int
    round_id: int
    payload_a: Any
    sig_a: Signature
    payload_b: Any
    sig_b: Signature

    @property
    def wire_size(self) -> int:
        return 2 * SIGNATURE_SIZE + 2 * 32 + 16  # sigs + payload digests + slot

    def verify(self, registry: KeyRegistry) -> bool:
        if self.sig_a.signer != self.accused or self.sig_b.signer != self.accused:
            return False
        if self.payload_a == self.payload_b:
            return False
        return registry.verify(self.sig_a, self.payload_a) and registry.verify(
            self.sig_b, self.payload_b
        )


@dataclass(frozen=True)
class InvalidSignatureProof:
    """A message whose signature does not verify.

    Note: in a real deployment an unverifiable signature cannot be pinned
    on the claimed signer (anyone can fabricate it); it *can* be pinned on
    the forwarding replica on authenticated channels.  ``accused`` is
    therefore the replica that *relayed* the bad artefact.
    """

    accused: int
    payload: Any
    signature: Signature

    @property
    def wire_size(self) -> int:
        return SIGNATURE_SIZE + 32 + 8

    def verify(self, registry: KeyRegistry) -> bool:
        # The proof is valid iff the contained signature is indeed invalid.
        return not registry.verify(self.signature, self.payload)


@dataclass(frozen=True)
class IncompleteAggregateProof:
    """OptiTree's aggregation rule (§6.3).

    An intermediate node's aggregate must contain, for each of its
    children, either the child's vote or a suspicion against it -- in
    total ``b + 1`` votes-or-suspicions including the node's own vote.  An
    aggregate violating this is proof-of-misbehavior against the node.
    """

    accused: int
    aggregate: AggregateSignature
    expected_children: FrozenSet[int]

    @property
    def wire_size(self) -> int:
        return self.aggregate.wire_size + 8 * len(self.expected_children) + 8

    def verify(self, registry: KeyRegistry) -> bool:
        if not self.aggregate.verify(registry):
            # A badly-signed aggregate from the accused is also misbehavior,
            # but it is the InvalidSignatureProof's job; reject here.
            return False
        if self.accused not in self.aggregate.signers:
            return False
        covered = self.aggregate.signers | self.aggregate.suspected
        missing = self.expected_children - covered
        return bool(missing)  # valid proof iff some child is uncovered


# ----------------------------------------------------------------------
# Sensor
# ----------------------------------------------------------------------
class MisbehaviorSensor(Sensor):
    """Raises complaints when the consensus engine detects violations.

    The detection logic lives in the protocol (it is the only component
    that can judge protocol-specific behaviour, §4.2.2); engines call
    :meth:`complain` with a constructed proof.
    """

    name = "misbehavior-sensor"

    def __init__(self, replica_id: int, app: SensorApp):
        super().__init__(replica_id, app)
        self._complained_about: Set[int] = set()

    def complain(self, accused: int, kind: str, proof: Any, view: int = 0) -> Optional[ComplaintRecord]:
        """Submit a complaint; at most one complaint per accused replica.

        The per-accused cap matches §7.8 ("complaints are raised at most
        once per replica") and bounds log growth.
        """
        if accused in self._complained_about:
            return None
        self._complained_about.add(accused)
        record = ComplaintRecord(
            reporter=self.replica_id,
            accused=accused,
            kind=kind,
            proof=proof,
            view=view,
        )
        self.record(record)
        return record


# ----------------------------------------------------------------------
# Monitor
# ----------------------------------------------------------------------
class MisbehaviorMonitor(Monitor):
    """Verifies complaints and maintains the provably-faulty set ``F``."""

    name = "misbehavior-monitor"
    record_types = (ComplaintRecord,)

    def __init__(self, replica_id: int, log: AppendOnlyLog, registry: KeyRegistry):
        self.registry = registry
        self.faulty: Set[int] = set()
        self.valid_complaints = 0
        self.invalid_complaints = 0
        super().__init__(replica_id, log)

    def on_entry(self, entry: LogEntry) -> None:
        record: ComplaintRecord = entry.record
        proof = record.proof
        verify = getattr(proof, "verify", None)
        accused_matches = getattr(proof, "accused", record.accused) == record.accused
        if verify is not None and accused_matches and verify(self.registry):
            self.valid_complaints += 1
            self.faulty.add(record.accused)
        else:
            # An invalid complaint is provable misbehavior by the reporter.
            self.invalid_complaints += 1
            self.faulty.add(record.reporter)

    @property
    def F(self) -> FrozenSet[int]:  # noqa: N802 - paper notation
        """The provably-faulty set F (§4.2.2)."""
        return frozenset(self.faulty)
