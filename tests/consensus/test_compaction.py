"""Replica compaction: O(1) state without observable effect.

``compact(keep)`` prunes per-sequence/height bookkeeping the protocol
can no longer read and swaps the committed/claimed-request generations.
The contract: a run that compacts aggressively at every slice boundary
produces **byte-identical** metrics to one that never compacts, and the
pruned maps actually stay bounded as the run grows.  (The chained
engines retire their per-height maps without it -- see
``test_state_lifetime.py`` -- so for them only ``qc_heights`` and the
claimed-key generations are left to compact.)
"""

import json

import pytest

from oracles import per_height_entries
from repro.experiments.runner import Scenario, prepare_scenario, run_scenario

_PROTOCOLS = ["pbft", "hotstuff-rr", "kauri"]


def _scenario(protocol, duration=12.0, seed=2):
    return Scenario(
        protocol=protocol,
        deployment="wonderproxy-4",
        workload="open-loop",
        workload_params=dict(rate=200.0, clients=2),
        duration=duration,
        seed=seed,
    )


def _run_with_compaction(scenario, every=2.0, keep=8):
    result = prepare_scenario(scenario)
    result.cluster.begin()
    sim = result.cluster.sim
    while sim.now < scenario.duration:
        sim.run(until=min(scenario.duration, sim.now + every))
        result.cluster.compact(keep)
    result.run_metrics = result.cluster.finish()
    return result


@pytest.mark.parametrize("protocol", _PROTOCOLS)
def test_compaction_does_not_change_metrics(protocol):
    scenario = _scenario(protocol)
    plain = run_scenario(scenario).to_json()
    compacted = _run_with_compaction(scenario).to_json()
    assert compacted == plain


@pytest.mark.parametrize("protocol", _PROTOCOLS)
def test_compaction_bounds_per_sequence_state(protocol):
    scenario = _scenario(protocol)
    compacted = _run_with_compaction(scenario, keep=8)
    plain = run_scenario(scenario)

    bounded = per_height_entries(compacted.cluster)
    unbounded = per_height_entries(plain.cluster)
    # The compacted run's bookkeeping must be a small fraction of the
    # run-length-proportional state the plain run accumulated.
    assert unbounded > 0
    assert bounded < unbounded / 3, (bounded, unbounded)
    if protocol != "pbft":
        # The chained engines retire per-height entries as they go
        # (tests/consensus/test_state_lifetime.py): what the plain run
        # accumulated is qc_heights alone, and the rest is already a
        # few heights per replica without any compact() call.
        live = per_height_entries(plain.cluster, exclude=("qc_heights",))
        assert 0 < live <= 4 * len(plain.cluster.replicas), live
        assert live == per_height_entries(
            compacted.cluster, exclude=("qc_heights",)
        )


@pytest.mark.parametrize("protocol", _PROTOCOLS)
def test_compaction_is_idempotent_and_cheap_when_idle(protocol):
    scenario = _scenario(protocol, duration=4.0)
    result = _run_with_compaction(scenario, every=1.0, keep=8)
    # Compacting again after the run must be a no-op on metrics state.
    before = result.to_json()
    result.cluster.compact(8)
    result.cluster.compact(8)
    assert result.to_json() == before


def test_compaction_with_faults_still_invariant():
    from repro.experiments.runner import FaultSpec

    scenario = Scenario(
        protocol="pbft",
        deployment="wonderproxy-4",
        workload="open-loop",
        workload_params=dict(rate=200.0, clients=2),
        duration=12.0,
        seed=4,
        faults=[FaultSpec(kind="crash", start=3.0, end=7.0, attacker=2)],
    )
    plain = run_scenario(scenario).to_json()
    compacted = _run_with_compaction(scenario).to_json()
    assert compacted == plain


def test_generational_gc_requires_interval_above_inflight_horizon():
    # keep=0 would let the two-generation request GC forget keys while
    # duplicates are still in flight; the runner's floor of the commit
    # frontier makes keep>=1 safe.  Document the boundary: aggressive
    # keep values still match the plain run.
    scenario = _scenario("pbft", duration=8.0)
    plain = run_scenario(scenario).to_json()
    assert _run_with_compaction(scenario, every=1.0, keep=1).to_json() == plain


def _optiaware_attack_scenario():
    from repro.experiments.runner import FaultSpec, MeasurementPolicy

    return Scenario(
        protocol="pbft-optiaware",
        deployment="wonderproxy-7",
        workload="open-loop",
        workload_params=dict(rate=300.0, clients=2),
        duration=10.0,
        seed=3,
        delta=1.25,
        measurements=MeasurementPolicy(
            probe_at=0.2, publish_at=0.6, first_search_at=4.0, search_period=3.0
        ),
        faults=[
            FaultSpec(kind="delay", start=1.0, attacker="leader",
                      extra_delay=0.3, message_types=("PrePrepare",)),
        ],
    )


def test_compaction_prunes_suspicion_round_maps():
    # OptiAware keeps per-round maps keyed by seq (round leaders, leader
    # suspicions, one-slow-per-suspect keys, and rounds whose PrePrepare
    # arrived past its own horizon and so never got a check scheduled);
    # compaction must bound them without changing a byte of the result.
    scenario = _optiaware_attack_scenario()
    plain = run_scenario(scenario)
    compacted = _run_with_compaction(scenario, every=1.0, keep=8)
    assert compacted.to_json() == plain.to_json()

    def footprint(cluster):
        total = 0
        for replica in cluster.replicas:
            pipeline = replica.optilog.pipeline
            total += len(pipeline.suspicion_monitor._round_leaders)
            total += len(pipeline.suspicion_monitor._leader_suspected_round)
            total += len(pipeline.suspicion_sensor._slow_reported)
            total += len(pipeline.suspicion_sensor._rounds)
        return total

    assert plain.cluster.replicas[0].optilog.pipeline.suspicion_sensor._slow_reported
    assert footprint(compacted.cluster) < footprint(plain.cluster) / 3


@pytest.mark.parametrize("keep", [0, 1])
def test_compaction_never_drops_a_pending_suspicion(keep):
    # keep=0/1 with a 50 ms cadence compacts rounds whose horizon check
    # has not fired yet and whose stragglers are still in flight; their
    # ⟨Slow⟩ suspicions must still be raised.
    scenario = _optiaware_attack_scenario()
    plain = run_scenario(scenario).to_json()
    compacted = _run_with_compaction(scenario, every=0.05, keep=keep)
    assert compacted.to_json() == plain
