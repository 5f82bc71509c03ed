"""Scenario-level message-plane equivalence: object vs columnar.

The refactor's acceptance bar: for every protocol family, a scenario
run on the columnar plane is **bit-identical** to the object plane --
same metrics JSON (minus the plane tag itself), same
:func:`~repro.experiments.trace.state_trace_hash`.  ``plane='check'``
runs both and raises :class:`PlaneDivergence` on the first difference;
faulted scenarios silently fall back to the object plane; checkpoint
resume composes with the columnar plane (satellite: interceptors in
flight across a checkpoint cut).
"""

import json

import pytest

from repro.experiments.checkpoint import load_checkpoint, save_checkpoint
from repro.experiments.runner import (
    FaultSpec,
    PlaneDivergence,
    Scenario,
    prepare_scenario,
    run_scenario,
)
from repro.experiments.trace import state_trace_hash

_PROTOCOLS = ["pbft", "pbft-optiaware", "hotstuff-rr", "kauri"]


def _scenario(protocol, **overrides):
    base = dict(
        protocol=protocol,
        deployment="wonderproxy-7",
        workload="open-loop",
        workload_params=dict(rate=120.0, clients=2),
        duration=4.0,
        seed=5,
    )
    base.update(overrides)
    return Scenario(**base)


def _comparable(result):
    metrics = result.metrics()
    metrics["scenario"].pop("plane", None)
    # The plane's account of itself (drain counters, a downgrade note)
    # is the one part of the JSON the planes are not meant to share.
    metrics.pop("plane", None)
    metrics.pop("effective_plane", None)
    return json.dumps(metrics, sort_keys=True)


@pytest.mark.parametrize("protocol", _PROTOCOLS)
def test_columnar_plane_is_bit_identical(protocol):
    object_result = run_scenario(_scenario(protocol, plane="object"))
    columnar_result = run_scenario(_scenario(protocol, plane="columnar"))
    assert _comparable(columnar_result) == _comparable(object_result)
    assert state_trace_hash(columnar_result.cluster) == state_trace_hash(
        object_result.cluster
    )


@pytest.mark.parametrize("protocol", ["hotstuff-rr", "kauri"])
def test_steady_state_drain_collapses_heap_events(protocol):
    # PR 7's acceptance bar at CI size: a saturated pristine run drains
    # whole runs of deliveries per heap pop, so the same deliveries cost
    # at least 3x fewer engine events than one event per message.
    def run(plane):
        scenario = _scenario(
            protocol, deployment="wonderproxy-16", workload="saturated",
            workload_params={}, duration=1.0, seed=7, plane=plane,
        )
        return run_scenario(scenario).cluster

    object_cluster, columnar_cluster = run("object"), run("columnar")
    delivered = object_cluster.network.stats.messages_delivered
    assert columnar_cluster.network.stats.messages_delivered == delivered > 0
    assert (
        object_cluster.sim.events_processed
        >= 3 * columnar_cluster.sim.events_processed
    )


def test_check_mode_runs_both_planes_and_returns():
    scenario = _scenario("hotstuff-rr", plane="check")
    result = run_scenario(scenario)
    assert result.scenario is scenario
    assert result.scenario.describe()["plane"] == "check"
    # The returned cluster is the columnar twin.
    assert result.cluster.network.plane == "columnar"


def test_check_mode_raises_on_divergence(monkeypatch):
    from repro.experiments import trace as trace_mod

    hashes = iter(["aaa", "bbb"])
    monkeypatch.setattr(
        trace_mod, "state_trace_hash", lambda cluster: next(hashes)
    )
    with pytest.raises(PlaneDivergence, match="state-trace hash"):
        run_scenario(_scenario("pbft", duration=1.0, plane="check"))


def test_check_mode_rejects_workload_instances():
    from repro.workloads import make_workload

    scenario = _scenario("pbft", plane="check")
    scenario.workload = make_workload("open-loop", rate=120.0, clients=2)
    scenario.workload_params = {}
    with pytest.raises(ValueError, match="named workload"):
        run_scenario(scenario)


def test_unknown_plane_is_rejected():
    with pytest.raises(ValueError, match="unknown message plane"):
        _scenario("pbft", plane="rowwise")


def test_prepare_rejects_check_plane():
    with pytest.raises(ValueError, match="run_scenario"):
        prepare_scenario(_scenario("pbft", plane="check"))


def test_default_plane_keeps_describe_and_json_stable():
    # Golden-file invariant: the default plane adds no key anywhere.
    result = run_scenario(_scenario("pbft", duration=1.0))
    assert "plane" not in result.scenario.describe()
    assert '"plane"' not in result.to_json()


def test_faulted_scenario_falls_back_to_object_plane():
    faults = [FaultSpec(kind="loss", start=1.0, end=3.0,
                        params={"rate": 0.2})]
    fallback = run_scenario(
        _scenario("pbft", faults=list(faults), plane="columnar")
    )
    assert fallback.cluster.network.plane == "object"
    baseline = run_scenario(_scenario("pbft", faults=list(faults)))
    assert _comparable(fallback) == _comparable(baseline)
    # The downgrade is visible in the result, and only there.
    assert fallback.metrics()["effective_plane"] == "object"
    assert "plane" not in fallback.metrics()
    assert "effective_plane" not in baseline.metrics()


def test_runtime_faults_fall_back_per_send():
    # A fault the scenario never declared (mid-run set_down) must still
    # be honoured by an armed columnar cluster: new sends take the
    # object path, in-flight rows get delivery-time checks.
    def run(plane):
        result = prepare_scenario(_scenario("hotstuff-rr", plane=plane))
        cluster = result.cluster
        cluster.begin()
        cluster.sim.schedule(1.0, cluster.network.set_down, 2, True)
        cluster.sim.schedule(2.5, cluster.network.set_down, 2, False)
        cluster.sim.run(until=4.0)
        result.run_metrics = cluster.finish()
        return result

    object_result = run("object")
    columnar_result = run("columnar")
    assert _comparable(columnar_result) == _comparable(object_result)
    assert columnar_result.cluster.network.stats.messages_dropped > 0


def test_campaign_slice_is_bit_identical_across_planes():
    # The PR 6 campaign plane drives prepare_scenario + checkpoint cuts
    # itself; a columnar campaign must merge to the same report.
    from repro.experiments.campaign import CampaignSpec, run_campaign

    def run(plane):
        scenario = Scenario(
            protocol="pbft",
            deployment="wonderproxy-4",
            workload="open-loop",
            workload_params=dict(rate=800.0, clients=2),
            duration=1e9,
            seed=3,
            plane=plane,
        )
        spec = CampaignSpec(
            scenario=scenario, requests=3000, checkpoint_every=2.0, shards=2
        )
        report = run_campaign(spec)
        report.pop("host")
        report["campaign"]["scenario"].pop("plane", None)
        for summary in report["shards"]:
            summary["scenario"].pop("plane", None)
            # The planes disagree on heap-event counts by design (a
            # columnar drain delivers many rows per event) -- same
            # exclusion state_trace_hash makes.
            summary.pop("events_processed")
        return json.dumps(report, sort_keys=True)

    assert run("columnar") == run("object")


# ----------------------------------------------------------------------
# Checkpoint/resume (satellite: caches consistent after __setstate__)
# ----------------------------------------------------------------------
def _run_sliced(scenario, path, cut):
    result = prepare_scenario(scenario)
    result.cluster.begin()
    result.cluster.sim.run(until=cut)
    save_checkpoint(path, result)
    restored = load_checkpoint(path, expected_scenario=scenario)
    restored.cluster.sim.run(until=scenario.duration)
    restored.run_metrics = restored.cluster.finish()
    return restored


def test_columnar_checkpoint_resume_is_bit_identical(tmp_path):
    scenario = _scenario("hotstuff-rr", plane="columnar")
    baseline = run_scenario(scenario)
    restored = _run_sliced(scenario, str(tmp_path / "c.ckpt"), cut=2.0)
    assert restored.to_json() == baseline.to_json()
    assert state_trace_hash(restored.cluster) == state_trace_hash(
        baseline.cluster
    )


def test_resume_with_interceptors_active_matches_uninterrupted(tmp_path):
    # The satellite regression: cut the run while a delay interceptor
    # and a crash are live, resume from disk, and compare state-trace
    # hashes against the uninterrupted run.  Exercises the
    # __getstate__/__setstate__ fast-path cache audit
    # (_refresh_fast_path, _stats_per_class, _delay_rows).
    faults = [
        FaultSpec(kind="delay", start=0.5, end=3.5, attacker=1,
                  extra_delay=0.05),
        FaultSpec(kind="crash", start=1.0, end=3.0, attacker=2),
    ]
    scenario = _scenario("pbft", faults=faults)
    baseline = run_scenario(scenario)
    restored = _run_sliced(scenario, str(tmp_path / "i.ckpt"), cut=2.0)
    assert restored.to_json() == baseline.to_json()
    assert state_trace_hash(restored.cluster) == state_trace_hash(
        baseline.cluster
    )
