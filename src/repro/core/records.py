"""Measurement records appended to the OptiLog log.

Each record type corresponds to one sensor of the pipeline in §4.2 and
carries a wire-size estimate used by the overhead study (Fig. 13).  Wire
sizes assume Ed25519-equivalent authentication of every proposal plus
compact binary encodings: 8-byte ids/floats, 2-byte message-type tags, a
small per-record header.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.crypto.signatures import SIGNATURE_SIZE

RECORD_HEADER_SIZE = 10  # type tag + sender + sequence hint

#: Sentinel used for replicas that failed to reply to a probe (§4.2.1:
#: "Any replica that fails to reply is marked as ∞ in the latency vector").
UNREACHABLE = math.inf


class SuspicionKind(enum.Enum):
    """The two suspicion flavours of §4.2.3's condition table."""

    SLOW = "slow"    # conditions (a) and (b)
    FALSE = "false"  # condition (c): reciprocation of a suspicion


@dataclass(frozen=True)
class LatencyVectorRecord:
    """One replica's latency vector (§4.2.1).

    ``vector[i]`` is the recorded link latency from ``sender`` to replica
    ``i`` in seconds, normalised to one-way (RTT/2) so that per-hop sums
    predict protocol delays directly; ``UNREACHABLE`` marks replicas that
    failed to reply.
    """

    sender: int
    vector: Tuple[float, ...]
    view: int = 0

    @property
    def wire_size(self) -> int:
        # 2-byte millisecond fixed-point per replica (0-65 s range), the
        # efficient encoding §7.2/§7.8 allude to.
        return RECORD_HEADER_SIZE + 2 * len(self.vector)


@dataclass(frozen=True)
class SuspicionRecord:
    """A suspicion ⟨Slow, A d B⟩ or ⟨False, A d B⟩ (§4.2.3).

    ``round_id`` and ``msg_type`` identify the message whose delay caused
    the suspicion, enabling the monitor's causal filtering; ``phase`` is
    the message's position in the round's causal order (0 = proposal).
    """

    reporter: int
    suspect: int
    kind: SuspicionKind
    round_id: int
    msg_type: str = ""
    phase: int = 0
    view: int = 0

    @property
    def wire_size(self) -> int:
        return RECORD_HEADER_SIZE + 8 + 8 + 1 + 8 + 2 + 2


@dataclass(frozen=True)
class ComplaintRecord:
    """A signed proof-of-misbehavior complaint (§4.2.2).

    ``proof`` is one of the proof objects from
    :mod:`repro.core.misbehavior`; its validity is checked by every
    replica's MisbehaviorMonitor.  An *invalid* complaint is itself
    provable misbehavior by the reporter.
    """

    reporter: int
    accused: int
    kind: str
    proof: object
    view: int = 0

    @property
    def wire_size(self) -> int:
        proof_size = getattr(self.proof, "wire_size", 0)
        return RECORD_HEADER_SIZE + 8 + 8 + 2 + SIGNATURE_SIZE + proof_size


@dataclass(frozen=True)
class Configuration:
    """A role assignment (§2): base class for protocol-specific configs.

    Subclasses (weight configurations in :mod:`repro.aware`, tree
    configurations in :mod:`repro.tree`) define which replicas hold
    *special* roles; the ConfigMonitor checks those against the candidate
    set ``K``.
    """

    def special_replicas(self) -> FrozenSet[int]:
        """Replicas holding special roles (leader, internal nodes, ...)."""
        raise NotImplementedError

    def participants(self) -> FrozenSet[int]:
        """All replicas taking part in the configuration."""
        raise NotImplementedError

    @property
    def wire_size(self) -> int:
        return RECORD_HEADER_SIZE + 8 * len(self.participants())


@dataclass(frozen=True)
class ConfigProposalRecord:
    """A configuration found by some replica's ConfigSensor (§4.2.4).

    ``claimed_score`` is the proposer's own evaluation; monitors recompute
    the score from the shared log state, which is what makes proposers
    accountable for their claims.
    """

    proposer: int
    configuration: Configuration
    claimed_score: float
    view: int = 0
    #: Log sequence number of the last record the searcher consumed;
    #: lets monitors detect proposals computed from stale state.
    basis_seq: int = -1

    @property
    def wire_size(self) -> int:
        return (
            RECORD_HEADER_SIZE
            + 8
            + 8
            + 8
            + self.configuration.wire_size
            + SIGNATURE_SIZE
        )

