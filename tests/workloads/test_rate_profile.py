"""The open-loop rate profile: one step table, one lookup.

Every open-loop shape is a table of segment starts and rates read by
``OpenLoopWorkload._segment``.  A timer that fires exactly on a segment
boundary must run the segment that starts there, also when the
parameters are not float-exact (1.1 s phases, a 9.595 s ramp): the
offered load is then the configured load.  Bad rates and durations fail
at construction, naming the parameter.
"""

import math
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_workloads import RecordingBursty, run_workload

from repro.experiments.runner import Scenario, run_scenario
from repro.workloads import (
    BurstyWorkload,
    DiurnalWorkload,
    FlashCrowdWorkload,
    OpenLoopWorkload,
    RampWorkload,
)


# ----------------------------------------------------------------------
# Offered load at float-inexact boundaries
# ----------------------------------------------------------------------
def test_bursty_inexact_phases_offer_the_configured_load():
    # 150 s of 1.1 s on / 2.2 s off at 100 req/s: 45 full cycles plus
    # 1.1 s of the 46th on phase, 50.6 s of on time.
    workload = run_workload(
        RecordingBursty(on_duration=1.1, off_duration=2.2), duration=150.0, seed=5
    )
    expected = 100.0 * (45 * 1.1 + 1.1)
    assert abs(len(workload.arrival_times) - expected) < 4 * math.sqrt(expected)


def test_bursty_inexact_phases_keep_off_phases_silent():
    workload = run_workload(
        RecordingBursty(on_duration=0.3, off_duration=0.7), duration=150.0, seed=3
    )
    assert workload.arrival_times
    in_off_phase = [
        t for t in workload.arrival_times if t - math.floor(t) >= 0.3 + 1e-9
    ]
    assert in_off_phase == []


def test_ramp_inexact_duration_runs_every_plateau():
    workload = RampWorkload(start_rate=10.0, end_rate=200.0, ramp_duration=9.595,
                            steps=5)
    t, rates = 0.0, []
    while t is not None:
        rates.append(workload.rate_at(t))
        t = workload.next_change(t)
    assert rates == [10.0, 57.5, 105.0, 152.5, 200.0, 200.0]


# ----------------------------------------------------------------------
# Walking the boundaries of every shape
# ----------------------------------------------------------------------
# Hundredths and tenths: almost none of these is float-exact.
_durations = st.integers(1, 500).map(lambda k: k / 100)
_rates = st.integers(0, 3000).map(lambda k: k / 10)


@st.composite
def _shapes(draw):
    """A shape with float-inexact parameters, the number of segments to
    walk, and an oracle: segment index -> (approximate start, rate),
    written from the shape's definition."""
    kind = draw(st.sampled_from(["bursty", "ramp", "diurnal", "flash-crowd"]))
    if kind == "bursty":
        on_rate, off_rate = draw(_rates), draw(_rates)
        on, off = draw(_durations), draw(_durations)
        workload = BurstyWorkload(on_rate=on_rate, off_rate=off_rate,
                                  on_duration=on, off_duration=off)

        def oracle(j):
            start = (j // 2) * (on + off) + (on if j % 2 else 0.0)
            return start, off_rate if j % 2 else on_rate

        return workload, 5 * 2, oracle
    if kind == "ramp":
        start_rate, end_rate = draw(_rates), draw(_rates)
        duration, steps = draw(_durations), draw(st.integers(1, 30))
        workload = RampWorkload(start_rate=start_rate, end_rate=end_rate,
                                ramp_duration=duration, steps=steps)

        def oracle(j):
            if j == steps:
                return duration, end_rate
            fraction = j / (steps - 1) if steps > 1 else 1.0
            return j * duration / steps, start_rate + fraction * (end_rate - start_rate)

        return workload, steps + 1, oracle
    if kind == "diurnal":
        low = draw(_rates)
        high = low + draw(_rates)
        period, steps = draw(_durations), draw(st.integers(2, 24))
        workload = DiurnalWorkload(low_rate=low, high_rate=high,
                                   period=period, steps=steps)

        def oracle(j):
            step = j % steps
            blend = 0.5 - 0.5 * math.cos(2.0 * math.pi * (step + 0.5) / steps)
            return j * period / steps, low + (high - low) * blend

        return workload, 4 * steps, oracle
    base, multiplier = draw(_rates), draw(st.integers(10, 200).map(lambda k: k / 10))
    decay_steps, step = draw(st.integers(1, 8)), draw(_durations)
    interval = decay_steps * step + draw(_durations)
    workload = FlashCrowdWorkload(base_rate=base, multiplier=multiplier,
                                  interval=interval, decay_steps=decay_steps,
                                  step_duration=step)

    def oracle(j):
        crowd, plateau = divmod(j, decay_steps + 1)
        start = crowd * interval + plateau * step
        if plateau == decay_steps:
            return start, base
        return start, base * multiplier * (multiplier ** (-1.0 / decay_steps)) ** plateau

    return workload, 4 * (decay_steps + 1), oracle


@settings(max_examples=300, deadline=None)
@given(_shapes())
def test_every_boundary_starts_the_segment_the_shape_defines(shape):
    workload, segments, oracle = shape
    assert workload.rate_at(0.0) == oracle(0)[1]
    boundary = 0.0
    for j in range(1, segments):
        previous, boundary = boundary, workload.next_change(boundary)
        assert boundary is not None and boundary > previous
        start, rate = oracle(j)
        assert boundary == pytest.approx(start, rel=1e-9, abs=1e-9)
        assert workload.rate_at(boundary) == rate, f"segment {j} at {boundary}"
    if isinstance(workload, RampWorkload):
        assert workload.next_change(boundary) is None  # end_rate holds for good


# ----------------------------------------------------------------------
# Bad input fails at construction and names the parameter
# ----------------------------------------------------------------------
def test_cli_infinite_open_loop_rate_is_refused():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "--protocol", "pbft",
         "--deployment", "wonderproxy-4", "--workload", "open-loop",
         "--param", "rate=1e999", "--duration", "2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert "error: rate must be finite" in proc.stderr


def test_scenario_nan_open_loop_rate_is_refused():
    scenario = Scenario(protocol="pbft", deployment="wonderproxy-4",
                        workload="open-loop",
                        workload_params=dict(rate=float("nan")), duration=2.0)
    with pytest.raises(ValueError, match="rate must be finite"):
        run_scenario(scenario)


def test_negative_bursty_off_rate_is_refused():
    with pytest.raises(ValueError, match="off_rate"):
        BurstyWorkload(off_rate=-5.0)


def test_negative_ramp_end_rate_is_refused():
    with pytest.raises(ValueError, match="end_rate"):
        RampWorkload(end_rate=-50.0)


def test_nan_bursty_on_duration_is_refused():
    with pytest.raises(ValueError, match="on_duration"):
        BurstyWorkload(on_duration=float("nan"))


def test_nan_diurnal_period_is_refused():
    with pytest.raises(ValueError, match="period must be finite"):
        DiurnalWorkload(period=float("nan"))


def test_nan_flash_crowd_step_duration_is_refused():
    with pytest.raises(ValueError, match="step_duration"):
        FlashCrowdWorkload(step_duration=float("nan"))


def test_set_profile_refuses_a_malformed_table():
    workload = OpenLoopWorkload()
    with pytest.raises(ValueError, match="first at 0"):
        workload.set_profile([1.0, 2.0], [5.0, 6.0])
    with pytest.raises(ValueError, match="must not decrease"):
        workload.set_profile([0.0, 2.0, 1.0], [5.0, 6.0, 7.0])
    with pytest.raises(ValueError, match="past the last edge"):
        workload.set_profile([0.0, 2.0], [5.0, 6.0], period=2.0)
    with pytest.raises(ValueError, match="profile rate"):
        workload.set_profile([0.0], [math.inf])
