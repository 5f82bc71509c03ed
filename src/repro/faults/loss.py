"""Probabilistic message loss (lossy-WAN scenarios).

A :class:`MessageLoss` interceptor drops each matching message with a
fixed probability.  The random stream MUST come from
:meth:`repro.sim.engine.Simulator.derive_rng` so seeded runs stay
bit-identical: the generator is private to the interceptor, and deriving
it only when loss is configured leaves the no-fault random streams
untouched.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterable, Optional, Tuple

from repro.faults.window import ActivationWindow


class MessageLoss:
    """Drop each matching message with probability ``rate``.

    Parameters
    ----------
    rate:
        Per-message drop probability in ``[0, 1]``.
    rng:
        A dedicated generator, e.g. ``sim.derive_rng("fault:loss")``.
        Required -- sharing a global stream would make enabling loss
        perturb every other random draw in the run.
    senders:
        Restrict loss to messages *from* these node ids (``None`` = every
        link, including client traffic).
    message_types:
        Restrict loss to these message type names (``None`` = all types).
    start, end, now_fn:
        Activation window; a non-trivial window requires ``now_fn``.

    A random draw is consumed for every message that matches the filters
    while the window is active -- never otherwise -- so the stream of
    draws is a deterministic function of the traffic.
    """

    def __init__(
        self,
        rate: float,
        rng: random.Random,
        senders: Optional[Iterable[int]] = None,
        message_types: Optional[Iterable[str]] = None,
        start: float = 0.0,
        end: float = math.inf,
        now_fn: Optional[Callable[[], float]] = None,
    ):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {rate}")
        self.rate = rate
        self.rng = rng
        self.senders = set(senders) if senders is not None else None
        self.message_types = set(message_types) if message_types is not None else None
        self.window = ActivationWindow(start, end, now_fn)
        self.messages_lost = 0
        self.messages_seen = 0

    def __call__(self, src: int, dst: int, message, delay: float) -> Optional[Tuple]:
        if src == dst:
            # Self-delivery never crosses a link; losing it would model a
            # node corrupting its own memory, not a lossy network.
            return message, delay
        window = self.window
        if not window.start <= window._now() <= window.end:
            return message, delay
        if self.senders is not None and src not in self.senders:
            return message, delay
        if (
            self.message_types is not None
            and type(message).__name__ not in self.message_types
        ):
            return message, delay
        self.messages_seen += 1
        if self.rng.random() < self.rate:
            self.messages_lost += 1
            return None
        return message, delay
