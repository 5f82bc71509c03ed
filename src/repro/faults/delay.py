"""Delay attacks (Fig. 7, Fig. 11).

All attacks are installed as network interceptors (see
:class:`repro.sim.network.Network`), so protocol code is untouched: a
Byzantine replica's *outgoing* messages of selected types are delivered
late, exactly like a replica that processes them slowly on purpose.
Every attack is windowed through :class:`repro.faults.window.ActivationWindow`,
which refuses a non-trivial ``start``/``end`` window without a clock.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Set, Tuple

from repro.faults.window import ActivationWindow


class DelayAttack:
    """Fixed extra delay on selected message types from an attacker.

    The Pre-Prepare delay attack of §7.1 [7, 21]: a Byzantine leader
    delays its proposals to inflate client-observed latency while staying
    below the view-change timeout.  Active between ``start`` and ``end``
    (simulation seconds); a windowed attack requires ``now_fn`` (usually
    ``lambda: sim.now``) and raises ``ValueError`` without one.
    """

    def __init__(
        self,
        attacker: int,
        message_types: Iterable[str],
        extra_delay: float,
        start: float = 0.0,
        end: float = math.inf,
        now_fn: Optional[Callable[[], float]] = None,
    ):
        self.attacker = attacker
        self.message_types = set(message_types)
        self.extra_delay = extra_delay
        self.window = ActivationWindow(start, end, now_fn)
        self.messages_delayed = 0

    @property
    def start(self) -> float:
        return self.window.start

    @property
    def end(self) -> float:
        return self.window.end

    def __call__(self, src: int, dst: int, message, delay: float) -> Optional[Tuple]:
        if src != self.attacker:
            return message, delay
        window = self.window
        if not window.start <= window._now() <= window.end:
            return message, delay
        if type(message).__name__ not in self.message_types:
            return message, delay
        self.messages_delayed += 1
        return message, delay + self.extra_delay


class DeltaDelayAttack:
    """δ-bounded delays by faulty internal tree nodes (§7.6).

    Faulty intermediates stretch their link delays by a factor ``delta``
    (e.g. 1.1, 1.2, 1.4): requests to leaf nodes and aggregates to the
    root arrive late, but within the suspicion threshold ``δ·d_m``, so no
    suspicion is ever raised -- the attack the paper uses to expose the
    δ trade-off.
    """

    def __init__(
        self,
        attackers: Iterable[int],
        delta: float,
        message_types: Iterable[str] = ("Forward", "AggregateVote"),
        start: float = 0.0,
        end: float = math.inf,
        now_fn: Optional[Callable[[], float]] = None,
    ):
        self.attackers: Set[int] = set(attackers)
        self.delta = delta
        self.message_types = set(message_types)
        self.window = ActivationWindow(start, end, now_fn)
        self.messages_delayed = 0

    def __call__(self, src: int, dst: int, message, delay: float) -> Optional[Tuple]:
        if src not in self.attackers:
            return message, delay
        window = self.window
        if not window.start <= window._now() <= window.end:
            return message, delay
        if type(message).__name__ not in self.message_types:
            return message, delay
        self.messages_delayed += 1
        return message, delay * self.delta


class StealthDelayAttack:
    """Adaptive stay-below-``δ·d_m`` delay adversary.

    Where :class:`DeltaDelayAttack` stretches whatever delay the link
    happened to draw, this adversary *adapts per message*: it knows the
    system's suspicion multiplier ``δ`` and the expected link delay
    ``d_m`` (the agreed latency matrix), and stretches each outgoing
    message to ``headroom · δ · d_m`` -- the worst delay that provably
    never crosses the suspicion deadline.  This is the strongest
    undetectable timing adversary the paper's threat model admits, and
    makes the δ trade-off (Fig. 11/§7.6) directly measurable.

    Parameters
    ----------
    expected_delay:
        ``(src, dst) -> seconds``: the delay the monitors *expect* on the
        link, i.e. ``d_m``.  Usually the network's base one-way delay.
    headroom:
        Safety fraction of the suspicion budget the attacker consumes
        (default 0.95; 1.0 would sit exactly on the deadline and lose to
        jitter).
    """

    def __init__(
        self,
        attackers: Iterable[int],
        delta: float,
        expected_delay: Callable[[int, int], float],
        headroom: float = 0.95,
        message_types: Optional[Iterable[str]] = None,
        start: float = 0.0,
        end: float = math.inf,
        now_fn: Optional[Callable[[], float]] = None,
    ):
        if not 0.0 < headroom <= 1.0:
            raise ValueError(f"headroom must be in (0, 1], got {headroom}")
        self.attackers: Set[int] = set(attackers)
        self.delta = delta
        self.expected_delay = expected_delay
        self.headroom = headroom
        self.message_types = set(message_types) if message_types is not None else None
        self.window = ActivationWindow(start, end, now_fn)
        self.messages_delayed = 0
        self.total_added = 0.0

    def __call__(self, src: int, dst: int, message, delay: float) -> Optional[Tuple]:
        if src not in self.attackers:
            return message, delay
        window = self.window
        if not window.start <= window._now() <= window.end:
            return message, delay
        if (
            self.message_types is not None
            and type(message).__name__ not in self.message_types
        ):
            return message, delay
        ceiling = self.headroom * self.delta * self.expected_delay(src, dst)
        if ceiling <= delay:
            return message, delay  # link already slower than the budget
        self.messages_delayed += 1
        self.total_added += ceiling - delay
        return message, ceiling
