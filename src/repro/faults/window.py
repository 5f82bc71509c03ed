"""Windowed activation shared by all interceptor-based adversaries.

Every fault in :mod:`repro.faults` that acts as a network interceptor is
*windowed*: it only manipulates traffic between ``start`` and ``end``
(simulation seconds).  The window needs a clock -- in a simulation,
``lambda: sim.now``.  Constructing a non-trivial window without one is a
silent no-op (the adversary never activates, the experiment reports
healthy numbers), so :class:`ActivationWindow` fails loudly instead.
"""

from __future__ import annotations

import math
from typing import Callable, Optional


def _zero_clock() -> float:
    """Clock of the trivial always-active window (module-level so windows
    stay picklable for simulator checkpoints)."""
    return 0.0


class ActivationWindow:
    """Gate for ``start <= now <= end`` with a mandatory clock.

    ``now_fn`` may be omitted only for the trivial always-active window
    (``start == 0`` and ``end == inf``); any real window without a clock
    raises ``ValueError`` at construction time.  Use a picklable clock
    (:class:`repro.sim.engine.SimClock`) when the window may be
    checkpointed.

    The check is ``start <= _now() <= end``, inclusive at both ends.
    Interceptors, which run once per message sent, inline exactly that
    expression.
    """

    __slots__ = ("start", "end", "_now")

    def __init__(
        self,
        start: float = 0.0,
        end: float = math.inf,
        now_fn: Optional[Callable[[], float]] = None,
    ):
        if start < 0:
            raise ValueError(
                f"window start {start} is negative; simulation time starts "
                "at 0, so the pre-zero portion would silently never apply"
            )
        if end < start:
            raise ValueError(f"window end {end} precedes start {start}")
        if now_fn is None:
            if start > 0.0 or end != math.inf:
                raise ValueError(
                    "a start/end window needs now_fn (e.g. SimClock(sim)); "
                    "without a clock the window would silently never trigger"
                )
            now_fn = _zero_clock
        self.start = start
        self.end = end
        self._now = now_fn
