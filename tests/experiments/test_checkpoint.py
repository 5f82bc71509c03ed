"""Deterministic checkpoint/resume: bit-identity and loud failures.

The contract under test: a run sliced at a checkpoint boundary, saved,
reloaded (in this process or another) and driven to completion produces
**byte-identical** metrics JSON to the uninterrupted run -- per
protocol, and with live fault machinery in flight.  And every way a
checkpoint file can be wrong (truncation, corruption, bad magic, bad
version, a different scenario) fails loudly with
:class:`CheckpointError`, never with a silently different simulation.
"""

import json
import math
import os

import pytest

from repro.experiments.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from repro.experiments.runner import (
    FaultSpec,
    MeasurementPolicy,
    Scenario,
    prepare_scenario,
    run_scenario,
)
from state_trace import state_trace_hash
from repro.faults.schedule import FAULT_KINDS

_DURATION = 6.0
_CUT = 3.0


def _scenario(protocol, faults=(), **overrides):
    base = dict(
        protocol=protocol,
        deployment="wonderproxy-4",
        workload="open-loop",
        workload_params=dict(rate=120.0, clients=2),
        duration=_DURATION,
        seed=5,
        faults=list(faults),
    )
    base.update(overrides)
    return Scenario(**base)


def _run_sliced_with_checkpoint(scenario, path):
    """Drive to the cut, checkpoint, reload from disk, finish."""
    result = prepare_scenario(scenario)
    result.cluster.begin()
    result.cluster.sim.run(until=_CUT)
    save_checkpoint(path, result)

    restored = load_checkpoint(path, expected_scenario=scenario)
    restored.cluster.sim.run(until=scenario.duration)
    restored.run_metrics = restored.cluster.finish()
    return restored


@pytest.mark.parametrize("protocol", ["pbft", "hotstuff-rr", "kauri"])
def test_resume_is_bit_identical_per_protocol(protocol, tmp_path):
    scenario = _scenario(protocol)
    baseline = run_scenario(scenario).to_json()
    restored = _run_sliced_with_checkpoint(
        scenario, str(tmp_path / f"{protocol}.ckpt")
    )
    assert restored.to_json() == baseline


def test_resume_is_bit_identical_with_faults_in_flight(tmp_path):
    # A crash that is down *at the cut* and a delay attack that outlives
    # it: the fault drivers and their scheduled revivals must survive
    # the pickle round-trip.
    faults = [
        FaultSpec(kind="crash", start=1.0, end=4.5, attacker=2),
        FaultSpec(kind="delay", start=0.5, end=5.5, attacker=1,
                  extra_delay=0.05),
    ]
    scenario = _scenario("pbft", faults=faults)
    baseline = run_scenario(scenario).to_json()
    restored = _run_sliced_with_checkpoint(scenario, str(tmp_path / "f.ckpt"))
    assert restored.to_json() == baseline


#: One fault per kind, each with the cut (t = 3) inside its window: the
#: armed fault, and whatever it has scheduled, crosses the pickle.
_FAULT_AT_CUT = {
    "delay": ("pbft", FaultSpec(kind="delay", start=1.0, end=5.0,
                                attacker="leader", extra_delay=0.05)),
    "delta_delay": ("pbft", FaultSpec(
        kind="delta_delay", start=1.0, end=5.0, attacker=(1,),
        params={"delta": 1.25, "adaptive": True},
    )),
    "crash": ("pbft", FaultSpec(kind="crash", start=1.0, end=4.5, attacker=2)),
    "churn": ("pbft", FaultSpec(
        kind="churn", start=0.5, end=5.5,
        params={"period": 1.0, "downtime": 0.6, "victims": (1, 2, 3),
                "random": True},
    )),
    "partition": ("hotstuff-rr", FaultSpec(kind="partition", start=2.0, end=4.0,
                                           params={"isolate": 3})),
    "loss": ("pbft", FaultSpec(kind="loss", start=1.0, end=5.0,
                               params={"rate": 0.05})),
    "false_suspicion": ("pbft-optiaware", FaultSpec(
        kind="false_suspicion", start=1.0, attacker=(2, 3),
        params={"target": "leader", "period": 0.5, "rounds": 6},
    )),
}


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_resume_is_bit_identical_per_fault_kind(kind, tmp_path):
    protocol, fault = _FAULT_AT_CUT[kind]
    scenario = _scenario(
        protocol,
        faults=[fault],
        delta=1.25,
        measurements=MeasurementPolicy(
            probe_at=0.2, publish_at=0.6, first_search_at=1.5, search_period=2.0
        ),
    )
    baseline = run_scenario(scenario)
    assert baseline.metrics()["fault_activity"][0]["kind"] == kind
    restored = _run_sliced_with_checkpoint(scenario, str(tmp_path / "k.ckpt"))
    assert restored.to_json() == baseline.to_json()
    assert state_trace_hash(restored.cluster) == state_trace_hash(baseline.cluster)


def test_resume_is_bit_identical_with_streaming_metrics(tmp_path):
    scenario = _scenario(
        "pbft", measurements=MeasurementPolicy(metrics="sketch")
    )
    baseline = run_scenario(scenario).to_json()
    restored = _run_sliced_with_checkpoint(scenario, str(tmp_path / "s.ckpt"))
    assert restored.to_json() == baseline


def test_optiaware_resume_rederives_round_plans(tmp_path):
    # Round plans are a memo over logged state: armed before the cut,
    # absent from the checkpoint, re-derived by the first round after the
    # resume -- with the delay attack's late rounds still in flight.
    scenario = _scenario(
        "pbft-optiaware",
        deployment="wonderproxy-7",
        delta=1.25,
        measurements=MeasurementPolicy(
            probe_at=0.2, publish_at=0.6, first_search_at=1.5, search_period=2.0
        ),
        faults=[
            FaultSpec(kind="delay", start=1.0, attacker="leader",
                      extra_delay=0.3, message_types=("PrePrepare",)),
        ],
    )
    baseline = run_scenario(scenario)

    path = str(tmp_path / "optiaware.ckpt")
    result = prepare_scenario(scenario)
    result.cluster.begin()
    result.cluster.sim.run(until=_CUT)
    pipelines = [replica.optilog.pipeline for replica in result.cluster.replicas]
    assert all(pipeline._plan_memo is not None for pipeline in pipelines)
    assert any(pipeline.suspicion_sensor._rounds for pipeline in pipelines)
    save_checkpoint(path, result)

    restored = load_checkpoint(path, expected_scenario=scenario)
    assert all(
        replica.optilog.pipeline._plan_memo is None
        for replica in restored.cluster.replicas
    )
    restored.cluster.sim.run(until=scenario.duration)
    restored.run_metrics = restored.cluster.finish()
    assert restored.to_json() == baseline.to_json()
    assert state_trace_hash(restored.cluster) == state_trace_hash(baseline.cluster)
    assert baseline.cluster.replicas[0].reconfigure_times  # it did reconfigure


def test_checkpoint_at_multiple_cuts_reaches_the_same_end(tmp_path):
    # Checkpointing every slice (and resuming only from the last file)
    # must not perturb the run: save_checkpoint is observation-free.
    scenario = _scenario("hotstuff-rr")
    baseline = run_scenario(scenario).to_json()

    path = str(tmp_path / "multi.ckpt")
    result = prepare_scenario(scenario)
    result.cluster.begin()
    for cut in (1.5, 3.0, 4.5):
        result.cluster.sim.run(until=cut)
        save_checkpoint(path, result)
    restored = load_checkpoint(path, expected_scenario=scenario)
    restored.cluster.sim.run(until=scenario.duration)
    restored.run_metrics = restored.cluster.finish()
    assert restored.to_json() == baseline


# ----------------------------------------------------------------------
# Header metadata
# ----------------------------------------------------------------------
def test_header_records_scenario_and_progress(tmp_path):
    scenario = _scenario("pbft")
    path = str(tmp_path / "h.ckpt")
    result = prepare_scenario(scenario)
    result.cluster.begin()
    result.cluster.sim.run(until=_CUT)
    header = save_checkpoint(path, result, extra={"shard": 3})
    assert header == read_header(path)
    assert header["scenario"] == json.loads(json.dumps(scenario.describe()))
    assert header["sim_now"] == _CUT
    assert header["extra"] == {"shard": 3}
    assert header["events_processed"] > 0
    assert header["pending_events"] > 0


# ----------------------------------------------------------------------
# Failure modes: every bad file is a loud CheckpointError
# ----------------------------------------------------------------------
@pytest.fixture()
def saved_checkpoint(tmp_path):
    scenario = _scenario("pbft")
    path = str(tmp_path / "good.ckpt")
    result = prepare_scenario(scenario)
    result.cluster.begin()
    result.cluster.sim.run(until=_CUT)
    save_checkpoint(path, result)
    return scenario, path


def test_truncated_checkpoint_fails_loudly(saved_checkpoint):
    scenario, path = saved_checkpoint
    blob = open(path, "rb").read()
    for cut in (0, 4, 9, 13, len(blob) // 2, len(blob) - 1):
        with open(path, "wb") as handle:
            handle.write(blob[:cut])
        with pytest.raises(CheckpointError):
            load_checkpoint(path, expected_scenario=scenario)


def test_corrupted_payload_fails_loudly(saved_checkpoint):
    scenario, path = saved_checkpoint
    blob = bytearray(open(path, "rb").read())
    blob[-20] ^= 0xFF  # flip a byte deep in the pickle payload
    with open(path, "wb") as handle:
        handle.write(blob)
    with pytest.raises(CheckpointError, match="sha256|checksum|payload"):
        load_checkpoint(path, expected_scenario=scenario)


def test_bad_magic_fails_loudly(saved_checkpoint):
    scenario, path = saved_checkpoint
    blob = bytearray(open(path, "rb").read())
    blob[0] ^= 0xFF
    with open(path, "wb") as handle:
        handle.write(blob)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path, expected_scenario=scenario)


def test_unknown_format_version_fails_loudly(saved_checkpoint):
    scenario, path = saved_checkpoint
    blob = open(path, "rb").read()
    # v1 files pickled their armed faults, v2 files the delivery token
    # and the sketch, v3 files the removed latency providers and v4 files
    # the removed closed-loop client class, v5 files the open-loop shapes
    # from their removed modules, v8 files the relaxed plane's flag, in
    # layouts this build no longer reads: the header refuses them before
    # pickle is asked to.
    for version in (99, 1, 2, 3, 4, 5, 8):
        with open(path, "wb") as handle:
            handle.write(blob[:8] + version.to_bytes(2, "little") + blob[10:])
        with pytest.raises(CheckpointError, match=f"v{version} unsupported"):
            load_checkpoint(path, expected_scenario=scenario)


def test_a_second_closure_is_not_checkpointable(tmp_path):
    # Only the network's delivery closure is tokenised; any other closure
    # in the graph still refuses to pickle.
    result = prepare_scenario(_scenario("pbft"))
    result.cluster.begin()
    result.cluster.sim.run(until=_CUT)
    marker = object()
    result.cluster.sim.schedule(1.0, lambda: marker)
    with pytest.raises(CheckpointError, match="not checkpointable"):
        save_checkpoint(str(tmp_path / "closure.ckpt"), result)


def test_trailing_garbage_fails_loudly(saved_checkpoint):
    scenario, path = saved_checkpoint
    with open(path, "ab") as handle:
        handle.write(b"junk")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path, expected_scenario=scenario)


def test_wrong_scenario_is_rejected_with_differing_fields(saved_checkpoint):
    _, path = saved_checkpoint
    other = _scenario("pbft", seed=6)
    with pytest.raises(CheckpointError, match="seed"):
        load_checkpoint(path, expected_scenario=other)
    renamed = _scenario("hotstuff-rr")
    with pytest.raises(CheckpointError):
        load_checkpoint(path, expected_scenario=renamed)


def test_save_is_atomic_no_tmp_left_behind(saved_checkpoint, tmp_path):
    _, path = saved_checkpoint
    leftovers = [
        name for name in os.listdir(os.path.dirname(path)) if ".tmp." in name
    ]
    assert leftovers == []


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises((CheckpointError, OSError)):
        load_checkpoint(str(tmp_path / "absent.ckpt"))
