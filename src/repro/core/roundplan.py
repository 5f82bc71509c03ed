"""Compiled round expectations for the SuspicionSensor (§4.2.3, Appendix C).

The timeouts ``d_m`` are derived from logged global state -- the latency
matrix and the active configuration -- so they change only when the log
changes them.  A :class:`RoundPlan` is that derivation done once: every
message one receiver expects in a round, laid out as flat arrays indexed
by an int *slot* ``kind_base[msg_type] + sender``, with the ``δ·d_m``
deadline offsets and the round horizon precomputed.  The sensor's
per-round state is then a timestamp plus a received-slot bitmask.

``deadline = timestamp + offsets[slot]`` performs the same two float
operations (``δ·d_m``, then the add) as deriving it per message, so
plan-driven suspicions are bit-identical to per-round derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class ExpectedMessage:
    """One message the protocol expects during a round.

    ``d_m`` is the expected delay from the round's proposal timestamp to
    the message's arrival (TR1/TR2); ``phase`` orders messages causally
    within the round (0 = proposal) and feeds the monitor's filtering.
    """

    sender: int
    msg_type: str
    phase: int
    d_m: float


class RoundPlan:
    """Everything one receiver expects in a round, compiled for ``delta``.

    Parameters
    ----------
    kinds:
        The message types, in slot order.
    width:
        Sender ids per kind (senders are ``0 .. width-1``).
    d_m:
        Flat ``len(kinds) * width`` list of expected delays; ``None``
        marks a slot the receiver does not expect.
    phases:
        Causal phase of each slot (ignored for unexpected slots).
    delta:
        The timer multiplier δ the offsets are compiled for.
    """

    __slots__ = (
        "kinds",
        "kind_base",
        "width",
        "d_m",
        "phases",
        "offsets",
        "expected_mask",
        "horizon_offset",
        "check_order",
    )

    def __init__(
        self,
        kinds: Sequence[str],
        width: int,
        d_m: List[Optional[float]],
        phases: List[int],
        delta: float,
    ):
        self.kinds: Tuple[str, ...] = tuple(kinds)
        self.kind_base: Dict[str, int] = {
            kind: index * width for index, kind in enumerate(self.kinds)
        }
        self.width = width
        self.d_m = d_m
        self.phases = phases
        #: ``δ·d_m`` per slot (``None`` = not expected).
        self.offsets: List[Optional[float]] = [
            None if delay is None else delta * delay for delay in d_m
        ]
        expected = [slot for slot, delay in enumerate(d_m) if delay is not None]
        #: Bit ``slot`` set for every expected slot.
        self.expected_mask = sum(1 << slot for slot in expected)
        #: ``δ·max(d_m)``: the round horizon relative to the proposal
        #: timestamp (``None`` when nothing is expected).
        self.horizon_offset: Optional[float] = (
            delta * max(d_m[slot] for slot in expected) if expected else None
        )
        #: Expected slots in the order the round check visits them:
        #: (phase, sender, msg_type), earliest phase first.
        self.check_order: List[int] = sorted(
            expected,
            key=lambda slot: (
                phases[slot], slot % width, self.kinds[slot // width]
            ),
        )

    def describe(self, slot: int) -> Tuple[int, str]:
        """``(sender, msg_type)`` of a slot."""
        kind, sender = divmod(slot, self.width)
        return sender, self.kinds[kind]

    def expected_messages(self) -> List[ExpectedMessage]:
        """The plan as :class:`ExpectedMessage` objects, in check order."""
        messages = []
        for slot in self.check_order:
            sender, msg_type = self.describe(slot)
            messages.append(
                ExpectedMessage(sender, msg_type, self.phases[slot], self.d_m[slot])
            )
        return messages
