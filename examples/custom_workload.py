"""Defining your own workload and running it through the scenario runner.

Two user-defined traffic shapes, both subclasses of
:class:`repro.workloads.OpenLoopWorkload` that only declare their rate
profile: a step table of segment start offsets and rates, optionally
repeating every ``period``, handed to ``set_profile``.  The base class
samples Poisson arrivals exactly at the table's boundaries.

* ``SineDayWorkload`` -- a sinusoidal day/night cycle, discretized into
  piecewise-constant steps that repeat every period.
* ``OneSpikeWorkload`` -- a quiet baseline with one huge spike (a
  "flash crowd"), then the baseline forever after.

Because a :class:`~repro.experiments.runner.Scenario` accepts a
``Workload`` *instance* (not just a registered name), custom shapes plug
straight into ``run_scenario`` -- and registering them in
``repro.workloads.WORKLOADS`` would expose them to the CLI too.

Run:  PYTHONPATH=src python examples/custom_workload.py
"""

import math

from repro.experiments.runner import Scenario, run_scenario
from repro.workloads import OpenLoopWorkload


class SineDayWorkload(OpenLoopWorkload):
    """Sinusoidal day/night rate: mean +/- amplitude over one period."""

    name = "diurnal"

    def __init__(self, mean_rate=60.0, amplitude=40.0, period=30.0,
                 steps_per_period=12, clients=1, sites=None):
        super().__init__(rate=mean_rate, clients=clients, sites=sites)
        self.mean_rate = mean_rate
        self.amplitude = amplitude
        self.period = period
        self.step = period / steps_per_period
        # Constant over each step, sampled at the step start.
        starts = [k * self.step for k in range(steps_per_period)]
        self.set_profile(
            starts,
            [max(0.0, mean_rate + amplitude * math.sin(2.0 * math.pi * start / period))
             for start in starts],
            period=period,
        )


class OneSpikeWorkload(OpenLoopWorkload):
    """Quiet baseline, then a short massive spike (a 'flash crowd')."""

    name = "flash-crowd"

    def __init__(self, base_rate=20.0, spike_rate=300.0,
                 spike_start=20.0, spike_duration=5.0, clients=1, sites=None):
        super().__init__(rate=base_rate, clients=clients, sites=sites)
        self.base_rate = base_rate
        self.spike_rate = spike_rate
        self.spike_start = spike_start
        self.spike_end = spike_start + spike_duration
        # No period: the last segment (the baseline) lasts forever.
        self.set_profile([0.0, spike_start, self.spike_end],
                         [base_rate, spike_rate, base_rate])


def main() -> None:
    for workload in (
        SineDayWorkload(mean_rate=60.0, amplitude=40.0, period=30.0),
        OneSpikeWorkload(base_rate=20.0, spike_rate=300.0, spike_start=20.0),
    ):
        scenario = Scenario(
            protocol="hotstuff-rr",
            deployment="wonderproxy-10",
            workload=workload,          # a Workload instance plugs in directly
            duration=45.0,
            seed=0,
        )
        metrics = run_scenario(scenario).metrics()
        client = metrics["client"]
        print(f"{workload.name:12s}: sent {client['requests_sent']:5d}, "
              f"completed {client['requests_completed']:5d}, "
              f"mean latency {client['mean_latency'] * 1000:6.1f} ms, "
              f"p99 {client['p99_latency'] * 1000:6.1f} ms")


if __name__ == "__main__":
    main()
