"""Scenario-level message-plane equivalence: heap-only vs the store.

The acceptance bar: for every protocol family, a scenario whose wide
multicasts wait in the row store is **bit-identical** to the heap-only
run (``oracles.heap_only``) -- same metrics JSON (minus the store's
counters), same :func:`state_trace.state_trace_hash` --
at thresholds that push everything (2, 4) or nothing (256) of these
n <= 16 deployments through it, sparse and dense.  The plane *names*:
``object`` and ``columnar`` are one plane, anything else is refused; a
faulted scenario drains parked rows through the heap path's checks;
checkpoint resume composes with rows parked (and with interceptors in
flight across the cut).
"""

import json

import pytest

from oracles import heap_only
from repro.experiments.checkpoint import load_checkpoint, save_checkpoint
from repro.experiments.runner import (
    FaultSpec,
    Scenario,
    prepare_scenario,
    run_scenario,
)
from state_trace import state_trace_hash
from repro.sim import network as network_mod
from repro.sim.network import Network

_PROTOCOLS = ["pbft", "pbft-optiaware", "hotstuff-rr", "kauri"]


@pytest.fixture
def small_fanout(monkeypatch):
    monkeypatch.setattr(Network, "block_fanout", 4)


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
    # The store's account of itself (drain counters) is the one part of
    # the JSON a heap-only run is not meant to share.
    metrics.pop("plane", None)
    return json.dumps(metrics, sort_keys=True)


def _heap_only_run(scenario):
    result = prepare_scenario(scenario)
    heap_only(result.cluster.network)
    result.run_metrics = result.cluster.run(scenario.duration)
    return result


@pytest.mark.parametrize("protocol", _PROTOCOLS)
def test_columnar_plane_is_bit_identical(protocol, monkeypatch):
    heap_result = _heap_only_run(_scenario(protocol))
    assert "plane" not in heap_result.metrics()
    for block_fanout in (2, 4, 256):
        for sparse_rows in (network_mod._SPARSE_ROWS, 0):
            monkeypatch.setattr(Network, "block_fanout", block_fanout)
            monkeypatch.setattr(network_mod, "_SPARSE_ROWS", sparse_rows)
            store_result = run_scenario(_scenario(protocol, plane="columnar"))
            case = (block_fanout, sparse_rows)
            if block_fanout != 4:  # (a 7-node Kauri tree fans out by 2)
                engaged = "plane" in store_result.metrics()
                assert engaged == (block_fanout == 2), case
            assert _comparable(store_result) == _comparable(heap_result), case
            assert state_trace_hash(store_result.cluster) == state_trace_hash(
                heap_result.cluster
            ), case


@pytest.mark.parametrize("protocol", ["hotstuff-rr", "kauri"])
def test_steady_state_drain_collapses_heap_events(protocol, monkeypatch):
    # What is left of PR 7's acceptance bar at CI size.  At the shipped
    # threshold an n = 16 run is one engine event per message, by
    # measurement (the sorted list that collapsed narrow sends lost
    # every cell it carried); with every fanout in the store, a
    # saturated pristine run still drains whole windows per heap pop --
    # at least 3x fewer engine events for the same deliveries.
    def run(store):
        scenario = _scenario(
            protocol, deployment="wonderproxy-16", workload="saturated",
            workload_params={}, duration=1.0, seed=7,
        )
        return (run_scenario if store else _heap_only_run)(scenario).cluster

    default_cluster, heap_cluster = run(True), run(False)
    delivered = heap_cluster.network.stats.messages_delivered
    assert default_cluster.network.stats.messages_delivered == delivered > 0
    assert default_cluster.sim.events_processed == heap_cluster.sim.events_processed
    monkeypatch.setattr(Network, "block_fanout", 2)
    store_cluster = run(True)
    assert store_cluster.network.stats.messages_delivered == delivered
    assert (
        heap_cluster.sim.events_processed
        >= 3 * store_cluster.sim.events_processed
    )


def test_unknown_plane_is_rejected():
    # The relaxed plane and the self-check planes are gone: each is
    # refused at construction, and the refusal says the relaxed plane
    # was removed.
    for plane in ("rowwise", "columnar-fast", "check", "check-fast"):
        with pytest.raises(ValueError, match="unknown message plane.*removed"):
            _scenario("pbft", plane=plane)


def test_default_plane_keeps_describe_and_json_stable():
    # Golden-file invariant: the exact plane, under either name, adds no
    # key anywhere while the store does not engage.
    for plane in ("object", "columnar"):
        result = run_scenario(_scenario("pbft", duration=1.0, plane=plane))
        assert "plane" not in result.scenario.describe()
        assert '"plane"' not in result.to_json()


def test_faulted_scenario_falls_back_to_object_plane(small_fanout):
    # (A crash, not ``loss``: its interceptor is installed for the whole
    # run, window open or not, which leaves nothing pristine to park.)
    faults = [FaultSpec(kind="crash", start=1.0, end=3.0, attacker=2)]
    baseline = _heap_only_run(_scenario("pbft", faults=list(faults)))
    # Rows park until the fault lands, then drain through the heap
    # path's checks.
    faulted = run_scenario(
        _scenario("pbft", faults=list(faults), plane="columnar")
    )
    assert _comparable(faulted) == _comparable(baseline)
    assert faulted.metrics()["plane"]["fault_fallbacks"] > 0


def test_runtime_faults_fall_back_per_send(small_fanout):
    # A fault the scenario never declared (mid-run set_down) must still
    # be honoured with rows parked: new sends take the heap, parked rows
    # get delivery-time checks.
    def run(store):
        result = prepare_scenario(_scenario("hotstuff-rr"))
        cluster = result.cluster
        if not store:
            heap_only(cluster.network)
        cluster.begin()
        cluster.sim.schedule(1.0, cluster.network.set_down, 2, True)
        cluster.sim.schedule(2.5, cluster.network.set_down, 2, False)
        cluster.sim.run(until=4.0)
        result.run_metrics = cluster.finish()
        return result

    heap_result, store_result = run(False), run(True)
    assert _comparable(store_result) == _comparable(heap_result)
    assert store_result.cluster.network.stats.messages_dropped > 0
    assert store_result.metrics()["plane"]["fault_fallbacks"] > 0


def test_campaign_slice_is_bit_identical_across_planes(monkeypatch):
    # The PR 6 campaign plane drives prepare_scenario + checkpoint cuts
    # itself; a campaign whose fanouts wait in the store must merge to
    # the same report as a heap-only one.
    from repro.experiments.campaign import CampaignSpec, run_campaign

    def run(block_fanout):
        monkeypatch.setattr(Network, "block_fanout", block_fanout)
        scenario = Scenario(
            protocol="pbft",
            deployment="wonderproxy-4",
            workload="open-loop",
            workload_params=dict(rate=800.0, clients=2),
            duration=1e9,
            seed=3,
        )
        spec = CampaignSpec(
            scenario=scenario, requests=3000, checkpoint_every=2.0, shards=2
        )
        report = run_campaign(spec)
        report.pop("host")
        # Heap-event counts differ by design (a drain delivers many rows
        # per event) -- same exclusion state_trace_hash makes.
        events = [summary.pop("events_processed") for summary in report["shards"]]
        return json.dumps(report, sort_keys=True), events

    (store_report, store_events), (heap_report, heap_events) = (
        run(2), run(float("inf"))
    )
    assert store_report == heap_report
    assert all(s < h for s, h in zip(store_events, heap_events))


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


def test_columnar_checkpoint_resume_is_bit_identical(tmp_path, small_fanout):
    scenario = _scenario("hotstuff-rr", plane="columnar")
    baseline = run_scenario(scenario)
    restored = _run_sliced(scenario, str(tmp_path / "c.ckpt"), cut=2.0)
    assert restored.metrics()["plane"]["window_rows"] > 0
    assert _comparable(restored) == _comparable(baseline)
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
