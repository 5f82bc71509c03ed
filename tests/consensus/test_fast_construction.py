"""Arity pins for the ``tuple.__new__`` fast-construction sites.

The hottest allocations (votes, commit events, signatures) bypass the
NamedTuple ``__new__`` wrapper via ``tuple.__new__(cls, (...))``, which
skips arity checking.  These tests freeze the field layouts so adding a
field to one of the classes fails HERE, pointing at the construction
sites that must be updated (``Vote`` in hotstuff.py and kauri.py,
``CommitEvent`` only in base.py's ``ReplicaBase._commit``, ``Signature``
in signatures.py), instead of surfacing as a malformed tuple at a
distant receiver.
"""

from repro.consensus.base import CommitEvent
from repro.consensus.messages import Vote
from repro.crypto.signatures import Signature


def test_vote_field_layout_matches_fast_construction_sites():
    assert Vote._fields == ("height", "block_hash", "sender")
    fast = tuple.__new__(Vote, (3, "h", 7))
    assert fast == Vote(height=3, block_hash="h", sender=7)
    assert (fast.height, fast.block_hash, fast.sender) == (3, "h", 7)


def test_commit_event_field_layout_matches_fast_construction_sites():
    assert CommitEvent._fields == (
        "height", "commit_time", "propose_time", "payload_count",
    )
    fast = tuple.__new__(CommitEvent, (5, 2.0, 1.0, 100))
    assert fast == CommitEvent(5, 2.0, 1.0, 100)
    assert fast.latency == 1.0


def test_signature_field_layout_matches_fast_construction_sites():
    assert Signature._fields == ("signer", "digest")
    fast = tuple.__new__(Signature, (2, b"\x01" * 32))
    assert fast == Signature(signer=2, digest=b"\x01" * 32)
    assert fast.wire_size == 64
