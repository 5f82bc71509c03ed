"""Deterministic guard: timeouts are derived per log change, not per round.

The ``optiaware-attack`` ledger workload (Fig. 7's timeline, compressed)
run for 12 simulated seconds: every replica arms the SuspicionSensor on
every PrePrepare, yet a ``PbftTimeouts`` may only be built -- and its
Accept-quorum scan (``quorum_formation_times``) only run -- when the
latency matrix or the configuration changed.  Counts only, no timing.
"""

import sys

import repro.core.timeouts as timeouts_module
from repro.core.suspicion import SuspicionSensor
from repro.experiments.runner import (
    FaultSpec,
    MeasurementPolicy,
    Scenario,
    prepare_scenario,
)
from repro.net.deployments import EUROPE21


def _attack_scenario():
    return Scenario(
        name="optiaware-attack",
        protocol="pbft-optiaware",
        deployment="Europe21",
        workload="closed-loop",
        duration=12.0,
        seed=1,
        delta=1.25,
        client_city=EUROPE21.index("Nuremberg"),
        measurements=MeasurementPolicy(
            probe_at=1.0, publish_at=2.5, first_search_at=6.5, search_period=4.5
        ),
        faults=[
            FaultSpec(
                kind="delay",
                start=13.65,
                attacker="leader",
                extra_delay=0.8,
                message_types=("PrePrepare",),
            )
        ],
    )


def test_timeouts_are_compiled_per_epoch_and_configuration(monkeypatch):
    counts = {"timeouts": 0, "quorum_scans": 0, "rounds": 0}

    real_init = timeouts_module.PbftTimeouts.__init__

    def counting_init(self, *args, **kwargs):
        counts["timeouts"] += 1
        real_init(self, *args, **kwargs)

    real_scan = timeouts_module.quorum_formation_times
    timeouts_methods = {"accept_send_time", "round_duration"}

    def counting_scan(arrivals, weights, threshold):
        # The configuration search scores candidates through the same
        # function (via weighted_round_duration); only the PbftTimeouts
        # methods are the per-round path this guards.
        if sys._getframe(1).f_code.co_name in timeouts_methods:
            counts["quorum_scans"] += 1
        return real_scan(arrivals, weights, threshold)

    real_begin = SuspicionSensor.begin_round

    def counting_begin(self, *args, **kwargs):
        counts["rounds"] += 1
        real_begin(self, *args, **kwargs)

    monkeypatch.setattr(timeouts_module.PbftTimeouts, "__init__", counting_init)
    monkeypatch.setattr(timeouts_module, "quorum_formation_times", counting_scan)
    monkeypatch.setattr(SuspicionSensor, "begin_round", counting_begin)

    scenario = _attack_scenario()
    result = prepare_scenario(scenario)
    result.cluster.run(scenario.duration)

    replicas = result.cluster.replicas
    bound = sum(
        replica.optilog.pipeline.latency_monitor.epoch
        * (1 + len(replica.reconfigure_times))
        for replica in replicas
    )
    assert any(replica.reconfigure_times for replica in replicas)
    assert counts["rounds"] > 4 * bound  # the run is long enough to tell
    assert 0 < counts["timeouts"] <= bound
    assert 0 < counts["quorum_scans"] <= bound
    # In fact each replica sees a handful of (epoch, configuration) pairs.
    assert counts["timeouts"] <= 4 * len(replicas)
