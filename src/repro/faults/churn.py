"""Node churn: crash -> recover cycles (§4.2.3's crash suspicions, plus
the recovering executions the role-assignment evaluation needs).

:class:`ChurnSchedule` runs cycles: every ``period`` seconds a victim
from a pool goes down for ``downtime`` seconds and then comes back.
Revival is *catch-up safe*: an ``on_revive`` hook runs right after the
node rejoins the network, so the host can fast-forward the replica's
state (committed height, sequence numbers) before traffic reaches it --
a replica reviving into a pipelined protocol with stale state would
otherwise poison the run with phantom conflicts no real recovery
procedure produces.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Optional, Sequence, Tuple

from repro.sim.engine import Simulator
from repro.sim.network import Network


class ChurnSchedule:
    """Crash/recover cycles over a victim pool.

    Victims are taken round-robin from ``pool`` unless an ``rng`` (from
    ``sim.derive_rng``) is supplied, in which case each cycle picks a
    uniformly random pool member.  A victim that is still down when its
    next turn comes around is skipped, so overlapping cycles cannot
    double-crash a node.  ``crashes`` and ``revivals`` record
    ``(time, victim)`` per event, in firing order.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        on_revive: Optional[Callable[[int], None]] = None,
    ):
        self.sim = sim
        self.network = network
        self.on_revive = on_revive
        self.crashes: List[Tuple[float, int]] = []
        self.revivals: List[Tuple[float, int]] = []
        self._cursor = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def cycle(
        self,
        pool: Sequence[int],
        period: float,
        downtime: float,
        start: float = 0.0,
        end: float = math.inf,
        rng: Optional[random.Random] = None,
    ) -> None:
        """Crash one pool member every ``period`` s for ``downtime`` s.

        The first crash fires at ``start + period``; cycles whose crash
        time would fall after ``end`` are not scheduled.  Overlapping
        cycles (``downtime > period``) are legal.
        """
        pool = list(pool)
        if not pool:
            raise ValueError("churn needs a non-empty victim pool")
        if period <= 0 or downtime <= 0:
            raise ValueError("churn period and downtime must be positive")
        driver = _CycleDriver(self, pool, period, downtime, end, rng)
        first = max(start, self.sim.now) + period
        if first <= end:
            self.sim.schedule_at(first, driver)

    def _pick(self, pool: Sequence[int], rng: Optional[random.Random]) -> Optional[int]:
        """Next victim that is currently up, or None if the pool is down."""
        up = [victim for victim in pool if not self.network.is_down(victim)]
        if not up:
            return None
        if rng is not None:
            return rng.choice(up)
        victim = up[self._cursor % len(up)]
        self._cursor += 1
        return victim

    # ------------------------------------------------------------------
    # Immediate actions
    # ------------------------------------------------------------------
    def crash(self, victim: int) -> None:
        self.network.set_down(victim)
        self.crashes.append((self.sim.now, victim))

    def revive(self, victim: int) -> None:
        self.network.set_down(victim, False)
        self.revivals.append((self.sim.now, victim))
        if self.on_revive is not None:
            self.on_revive(victim)


class _CycleDriver:
    """One churn cycle's repeating event.  A class, not a closure: churn
    events live in the checkpointed simulator heap and must pickle."""

    __slots__ = ("schedule", "pool", "period", "downtime", "end", "rng")

    def __init__(
        self,
        schedule: ChurnSchedule,
        pool: List[int],
        period: float,
        downtime: float,
        end: float,
        rng: Optional[random.Random],
    ):
        self.schedule = schedule
        self.pool = pool
        self.period = period
        self.downtime = downtime
        self.end = end
        self.rng = rng

    def __call__(self) -> None:
        schedule = self.schedule
        victim = schedule._pick(self.pool, self.rng)
        if victim is not None:
            schedule.crash(victim)
            schedule.sim.schedule(self.downtime, schedule.revive, victim)
        if schedule.sim.now + self.period <= self.end:
            schedule.sim.schedule(self.period, self)
