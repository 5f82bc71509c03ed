"""Open-loop Poisson workloads: one rate profile, five shapes.

Arrivals form a Poisson process whose rate is a step table -- segment
start offsets, one rate per segment, and an optional period after which
the table repeats -- set by :meth:`OpenLoopWorkload.set_profile` and read
by one lookup, :meth:`OpenLoopWorkload._segment`.  Sampling exploits the
memorylessness of the exponential: a gap is drawn at the current rate,
and if it would cross the segment's end the draw is restarted there
instead of firing -- exact for piecewise-constant rates, so every shape
gets crisp transitions (a rate-0 segment generates no traffic at all).
The shapes differ only in their tables, which are pure functions of
their parameters, so checkpoints hold nothing but plain floats.

Unlike the closed loop, an open-loop source does not wait for replies:
load keeps arriving while the system is saturated, which is exactly the
regime that stresses leader and tree reconfiguration.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Optional, Sequence, Tuple

from repro.workloads.base import Workload


def _check_rate(name: str, value: float) -> float:
    """``value`` if it is a usable arrival rate (finite, >= 0)."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {value}")
    return value


def _check_duration(name: str, value: float) -> float:
    """``value`` if it is a usable duration (finite, > 0)."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


class OpenLoopWorkload(Workload):
    """Poisson arrivals spread round-robin over clients, at a constant
    ``rate`` unless a subclass sets a time-varying profile."""

    name = "open-loop"

    def __init__(
        self,
        rate: float = 50.0,
        clients: int = 1,
        sites: Optional[Sequence[int]] = None,
    ):
        super().__init__(clients=clients, sites=sites)
        self.rate = _check_rate("rate", rate)
        self.set_profile([0.0], [rate])
        self._round_robin = 0
        self._timer = None

    # ------------------------------------------------------------------
    # Rate profile
    # ------------------------------------------------------------------
    def set_profile(
        self,
        edges: Sequence[float],
        rates: Sequence[float],
        period: Optional[float] = None,
    ) -> None:
        """Run at ``rates[i]`` from offset ``edges[i]`` (0 first, never
        decreasing) until the next edge; the last segment lasts until
        ``period``, where the table repeats, or forever if it is None."""
        edges, rates = list(edges), list(rates)
        if len(edges) != len(rates) or edges[:1] != [0.0]:
            raise ValueError("a profile needs one rate per edge, the first at 0")
        if any(b < a for a, b in zip(edges, edges[1:])):
            raise ValueError(f"profile edges must not decrease, got {edges}")
        if period is not None and not edges[-1] < period < math.inf:
            raise ValueError(f"period must be finite, past the last edge: {period}")
        for rate in rates:
            _check_rate("profile rate", rate)
        self._edges, self._rates, self._period = edges, rates, period

    def _segment(self, t: float) -> Tuple[float, Optional[float]]:
        """The rate at virtual time ``t`` and the absolute time its
        segment ends (None if never).  ``t`` is placed by comparing it
        with the very boundary floats returned, so a timer firing on a
        boundary reads the segment starting there, and the end is
        strictly after ``t`` (rescheduling at ``t`` would livelock)."""
        edges, period = self._edges, self._period
        base = 0.0
        end = None
        if period is not None:
            cycle = t // period
            if cycle * period > t:
                cycle -= 1.0
            elif (cycle + 1.0) * period <= t:
                cycle += 1.0
            base, end = cycle * period, (cycle + 1.0) * period
        i = max(bisect_right(edges, t - base) - 1, 0)
        while i and base + edges[i] > t:
            i -= 1
        last = len(edges) - 1
        while i < last and base + edges[i + 1] <= t:
            i += 1
        return self._rates[i], (base + edges[i + 1] if i < last else end)

    def rate_at(self, t: float) -> float:
        """Instantaneous arrival rate at virtual time ``t`` (req/s)."""
        return self._segment(t)[0]

    def next_change(self, t: float) -> Optional[float]:
        """Absolute time the rate next changes after ``t``; None if never."""
        return self._segment(t)[1]

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def bind(self, binding) -> None:
        self._timer = None  # never carry a timer across rebinds
        self._round_robin = 0
        super().bind(binding)

    def start(self) -> None:
        super().start()
        self._schedule_next()

    def stop(self) -> None:
        super().stop()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _schedule_next(self) -> None:
        if not self.running:
            return
        now = self.binding.sim.now
        rate, boundary = self._segment(now)
        if rate <= 0.0:
            if boundary is None:
                return  # rate dried up for good
            self._timer = self.binding.sim.schedule_at(boundary, self._schedule_next)
            return
        gap = self.rng.expovariate(rate)
        if boundary is not None and now + gap >= boundary:
            # The draw crosses a rate change; restart at the boundary
            # (valid by memorylessness, exact for piecewise rates).
            self._timer = self.binding.sim.schedule_at(boundary, self._schedule_next)
            return
        self._timer = self.binding.sim.schedule(gap, self._fire)

    def _fire(self) -> None:
        self._timer = None
        if not self.running:
            return
        self._pick_client().submit()
        self._schedule_next()

    def _pick_client(self):
        client = self.clients[self._round_robin % len(self.clients)]
        self._round_robin += 1
        return client


class BurstyWorkload(OpenLoopWorkload):
    """On/off phases: ``on_rate`` for ``on_duration`` seconds, then
    ``off_rate`` for ``off_duration`` seconds, starting in the on phase.
    With ``off_rate=0`` the off phases are completely silent."""

    name = "bursty"

    def __init__(self, on_rate: float = 100.0, off_rate: float = 0.0,
                 on_duration: float = 5.0, off_duration: float = 5.0,
                 clients: int = 1, sites: Optional[Sequence[int]] = None):
        super().__init__(rate=_check_rate("on_rate", on_rate), clients=clients,
                         sites=sites)
        self.on_rate = on_rate
        self.off_rate = _check_rate("off_rate", off_rate)
        self.on_duration = _check_duration("on_duration", on_duration)
        self.off_duration = _check_duration("off_duration", off_duration)
        self.set_profile([0.0, on_duration], [on_rate, off_rate],
                         period=on_duration + off_duration)


class RampWorkload(OpenLoopWorkload):
    """Offered load rising linearly from ``start_rate`` to ``end_rate``
    in ``steps`` plateaus over ``ramp_duration`` seconds, then holding
    ``end_rate``: for finding the saturation knee."""

    name = "ramp"

    def __init__(self, start_rate: float = 10.0, end_rate: float = 200.0,
                 ramp_duration: float = 30.0, steps: int = 20,
                 clients: int = 1, sites: Optional[Sequence[int]] = None):
        super().__init__(rate=_check_rate("start_rate", start_rate), clients=clients,
                         sites=sites)
        if steps < 1:
            raise ValueError(f"need at least 1 ramp step, got {steps}")
        self.start_rate = start_rate
        self.end_rate = _check_rate("end_rate", end_rate)
        self.ramp_duration = _check_duration("ramp_duration", ramp_duration)
        self.steps = steps
        step_size = ramp_duration / steps
        fractions = [step / (steps - 1) for step in range(steps)] if steps > 1 else [1.0]
        self.set_profile(
            [step * step_size for step in range(steps + 1)],
            [start_rate + fraction * (end_rate - start_rate) for fraction in fractions]
            + [end_rate],
        )


class DiurnalWorkload(OpenLoopWorkload):
    """Raised-cosine day/night cycle between ``low_rate`` and
    ``high_rate``, in ``steps`` plateaus per ``period``.  The cycle
    starts at the trough ("midnight") and peaks at ``period / 2``, so a
    campaign spanning several periods alternates quiet and saturated
    regimes deterministically."""

    name = "diurnal"

    def __init__(self, low_rate: float = 20.0, high_rate: float = 200.0,
                 period: float = 120.0, steps: int = 24,
                 clients: int = 1, sites: Optional[Sequence[int]] = None):
        super().__init__(rate=_check_rate("high_rate", high_rate), clients=clients,
                         sites=sites)
        if steps < 2:
            raise ValueError(f"need at least 2 steps per period, got {steps}")
        if not 0 <= low_rate <= high_rate:
            raise ValueError(
                f"need 0 <= low_rate <= high_rate, got {low_rate}, {high_rate}"
            )
        self.low_rate = low_rate
        self.high_rate = high_rate
        self.period = _check_duration("period", period)
        self.steps = steps
        # Raised cosine evaluated at each plateau's midpoint, so the
        # staircase brackets the smooth profile symmetrically.
        blends = [0.5 - 0.5 * math.cos(2.0 * math.pi * (step + 0.5) / steps)
                  for step in range(steps)]
        self.set_profile(
            [step * (period / steps) for step in range(steps)],
            [low_rate + (high_rate - low_rate) * blend for blend in blends],
            period=period,
        )


class FlashCrowdWorkload(OpenLoopWorkload):
    """``base_rate`` traffic with a flash crowd at every multiple of
    ``interval`` (the first at t=0): the rate jumps to ``base_rate *
    multiplier`` and decays geometrically over ``decay_steps`` plateaus
    of ``step_duration`` seconds, then is exactly ``base_rate`` until
    the next crowd."""

    name = "flash-crowd"

    def __init__(self, base_rate: float = 50.0, multiplier: float = 8.0,
                 interval: float = 60.0, decay_steps: int = 6,
                 step_duration: float = 2.0,
                 clients: int = 1, sites: Optional[Sequence[int]] = None):
        super().__init__(rate=_check_rate("base_rate", base_rate), clients=clients,
                         sites=sites)
        self.interval = _check_duration("interval", interval)
        self.step_duration = _check_duration("step_duration", step_duration)
        if decay_steps < 1:
            raise ValueError(f"need at least one decay step, got {decay_steps}")
        if not 1.0 <= multiplier < math.inf:
            raise ValueError(f"multiplier must be finite and >= 1, got {multiplier}")
        if decay_steps * step_duration >= interval:
            raise ValueError(
                "decay must finish before the next crowd: "
                f"{decay_steps} * {step_duration} >= {interval}"
            )
        self.base_rate = base_rate
        self.multiplier = multiplier
        self.decay_steps = decay_steps
        # Per-plateau decay factor: after ``decay_steps`` plateaus the
        # excess over base has fallen to multiplier**-1 of itself --
        # close enough to base that the tail is cut there.
        decay = multiplier ** (-1.0 / decay_steps)
        self.set_profile(
            [step * step_duration for step in range(decay_steps + 1)],
            [base_rate * multiplier * (decay ** step) for step in range(decay_steps)]
            + [base_rate],
            period=interval,
        )
