"""Relaxed message plane: columnar-fast vs the exact plane.

``plane='columnar-fast'`` coalesces same-destination rows inside
barrier windows, so it is NOT bit-identical to the exact plane -- the
contract is documented equivalence on final metrics: equal commit
counts, per-replica commit heights and client request totals, and
latency quantiles within the :class:`repro.metrics.MetricsSketch`
error bound.  ``oracles.assert_relaxed_equivalent`` runs both planes
and asserts exactly that; the property test below drives it across
protocols, workloads and seeds.

Faulted scenarios silently fall back to the object plane, and the
structured-array spine checkpoints: a cut/resumed columnar-fast run
replays bit-identically to the uninterrupted one.  Eight pinned runs
hold the relaxed plane's own bytes (result JSON and state trace), so a
drain rewrite that should not change them cannot drift silently.
"""

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from oracles import assert_relaxed_equivalent
from repro.experiments.checkpoint import load_checkpoint, save_checkpoint
from repro.experiments.runner import (
    FaultSpec,
    Scenario,
    prepare_scenario,
    run_scenario,
)
from state_trace import state_trace_hash


def _scenario(protocol, workload, workload_params, **overrides):
    base = dict(
        protocol=protocol,
        deployment="wonderproxy-7",
        workload=workload,
        workload_params=dict(workload_params),
        duration=2.0,
        seed=5,
        jitter=0.0,
    )
    base.update(overrides)
    return Scenario(**base)


#: (protocol, workload, workload_params, scenario overrides) -- every
#: engine family, both open- and closed-loop client drives where the
#: protocol supports them, and one deployment wide enough (n = 256) that
#: multicasts park in the row store on both planes.
_CASES = [
    ("pbft", "open-loop", (("rate", 120.0), ("clients", 2)), ()),
    ("pbft", "closed-loop", (("clients", 3),), ()),
    ("pbft-optiaware", "open-loop", (("rate", 120.0), ("clients", 2)), ()),
    ("hotstuff-rr", "saturated", (), ()),
    ("kauri", "saturated", (), ()),
    (
        "pbft", "open-loop", (("rate", 120.0), ("clients", 2)),
        (("deployment", "world-256"), ("duration", 1.0)),
    ),
]


def _case_scenario(case, **overrides):
    protocol, workload, params, case_overrides = case
    return _scenario(protocol, workload, params, **dict(case_overrides), **overrides)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=st.sampled_from(_CASES),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_fast_plane_matches_exact_final_metrics(case, seed):
    # The oracle reruns the scenario on both planes and fails on any
    # count mismatch or quantile outside the sketch error bound -- the
    # property is simply that it returns.
    exact, fast = assert_relaxed_equivalent(_case_scenario(case, seed=seed))
    assert exact.cluster.network.plane == "object"
    assert fast.cluster.network.plane == "columnar-fast"


@pytest.mark.parametrize(
    "case", _CASES, ids=lambda c: "-".join([c[0], c[1], *(str(v) for _, v in c[3])])
)
def test_every_engine_family_passes_check_fast(case):
    # What plane="check-fast" asserted, now asserted by the oracle.
    exact, fast = assert_relaxed_equivalent(_case_scenario(case))
    assert fast.run_metrics is not None
    if case[3]:
        # Wide enough for the store: the exact plane drains windows too.
        assert exact.metrics()["plane"]["windows"] > 0
        assert fast.metrics()["plane"]["windows"] > 0


def test_prepare_rejects_check_fast_plane():
    # Refused at construction, and the refusal names the oracle that
    # holds the equivalence it used to assert.
    with pytest.raises(ValueError, match="assert_relaxed_equivalent"):
        prepare_scenario(_scenario("pbft", "open-loop", {}, plane="check-fast"))


def test_check_fast_raises_on_divergence(monkeypatch):
    heights = iter([[3, 3, 3, 3, 3, 3, 3], [3, 3, 3, 3, 3, 3, 2]])
    monkeypatch.setattr(oracles, "commit_heights", lambda cluster: next(heights))
    with pytest.raises(AssertionError, match="commit heights"):
        assert_relaxed_equivalent(
            _scenario("hotstuff-rr", "saturated", {}, duration=1.0)
        )


def test_faulted_scenario_falls_back_to_object_plane():
    faults = [FaultSpec(kind="loss", start=0.5, end=1.5, params={"rate": 0.2})]
    kwargs = dict(rate=120.0, clients=2)
    fallback = run_scenario(
        _scenario(
            "pbft", "open-loop", kwargs, faults=list(faults),
            plane="columnar-fast",
        )
    )
    assert fallback.cluster.network.plane == "object"
    baseline = run_scenario(
        _scenario("pbft", "open-loop", kwargs, faults=list(faults))
    )
    assert fallback.metrics()["committed_requests"] == (
        baseline.metrics()["committed_requests"]
    )


# ----------------------------------------------------------------------
# Checkpoint/resume: the structured spine's __getstate__
# ----------------------------------------------------------------------
def test_fast_spine_checkpoint_resume_is_bit_identical(tmp_path):
    # Same plane on both sides, so full bit-identity applies: the cut
    # lands while rows are parked in the structured column and the
    # armed drain cursor sits in the heap.
    scenario = _scenario(
        "hotstuff-rr", "saturated", {}, duration=4.0, plane="columnar-fast"
    )
    baseline = run_scenario(scenario)
    result = prepare_scenario(scenario)
    result.cluster.begin()
    result.cluster.sim.run(until=2.0)
    assert result.cluster.network._fast.count > 0
    path = str(tmp_path / "fast.ckpt")
    save_checkpoint(path, result)
    restored = load_checkpoint(path, expected_scenario=scenario)
    restored.cluster.sim.run(until=scenario.duration)
    restored.run_metrics = restored.cluster.finish()
    # The drain counters say how the run was sliced (the cut ends one
    # window early and restores the store unsorted); what was delivered
    # through windows does not depend on it.
    restored_metrics, baseline_metrics = restored.metrics(), baseline.metrics()
    restored_plane = restored_metrics.pop("plane")
    baseline_plane = baseline_metrics.pop("plane")
    assert restored_plane["window_rows"] == baseline_plane["window_rows"] > 0
    assert restored_metrics == baseline_metrics
    assert state_trace_hash(restored.cluster) == state_trace_hash(
        baseline.cluster
    )


# ----------------------------------------------------------------------
# Relaxed-plane pins: the bytes a columnar-fast run produces
# ----------------------------------------------------------------------
_OPEN_LOOP = (("rate", 200.0), ("clients", 2))

#: (protocol, deployment, workload, params, duration, jitter) ->
#: (sha256 of ``result.to_json(indent=2)``, ``state_trace_hash``), seed 1,
#: delta 1.25.  Only a change to what the relaxed plane computes may
#: re-record them.
_RELAXED_PINS = {
    ("pbft", "world-300", "open-loop", _OPEN_LOOP, 1.5, 0.02): (
        "dad6f2c11d3ebe679e6133318b65bfc59cc9029ac5eb843a749b0c37826ba76c",
        "70312c2a9a65ffabfb0866ce75b08623128e7eb2092860323e5bb81c520e42ad",
    ),
    ("pbft", "world-300", "open-loop", _OPEN_LOOP, 1.5, 0.0): (
        "5ee24aa8a5ef2a06dbe75f456524e161317efb3c58a66bd157dc30d95feff447",
        "47098e81e539d7f9107d695f95af36c5d3851e8b9a5f94cbf866bd822c4f654b",
    ),
    ("pbft-optiaware", "Europe21", "open-loop", _OPEN_LOOP, 4.0, 0.02): (
        "a98d344effed5b47c4466e9e5e4261a1f68ade3e5f9355ec9138a8554b517ef7",
        "b92ba26191dd0491ef5c780b7ed1e6a2021128d475c39db6fe098cf71f9a08ad",
    ),
    ("pbft-optiaware", "Europe21", "open-loop", _OPEN_LOOP, 4.0, 0.0): (
        "5578bfece4a2ab25796a84b0cc53f0f8d02d807558f3ea277b67ba7d07634eb4",
        "027564e419c2c625f8641f6b69cf8c1367d6ff7b168bb67129060c1c2fc8808f",
    ),
    ("hotstuff-rr", "world-300", "saturated", (), 4.0, 0.02): (
        "92ef739a32d9e3a90537a88182aca9e428f5918732a48a128f44061157e9e8c3",
        "aecd8843f55a3dfdda8e661e6d12fddbee3fb9e4575ee881b7e23807d78090e6",
    ),
    ("hotstuff-rr", "world-300", "saturated", (), 4.0, 0.0): (
        "998a705f0755c87bde4ec7c6941f209066be20eb1aac51afce32d5d0b47af9ab",
        "6f7e432a08a77980ca0b0caa1655e3fc7fe861f066aa4a6eab267fcbba9ec7ad",
    ),
    ("kauri", "world-73", "saturated", (), 6.0, 0.02): (
        "bf6ac8fd359b4bddaa47b9fad503a1ccc74ff0ef6a3097d610567ab2f3afc31b",
        "ff193d0ed3d9bd27ec37f039de203a8b54c630ebf4a75ab54235eb1fd0c44358",
    ),
    ("kauri", "world-73", "saturated", (), 6.0, 0.0): (
        "bc41920f5977c040960758b4e2c1ddbc6c66350fe0ae3ca88b859edac5b274d9",
        "d8e27b95b73f4218c91d3abb2ed49fa8b2738ce8da44f9304eaad885f39dbf76",
    ),
}


@pytest.mark.parametrize(
    "case", sorted(_RELAXED_PINS), ids=lambda c: f"{c[0]}-{c[1]}-j{c[5]}"
)
def test_relaxed_plane_reproduces_recorded_bytes(case):
    protocol, deployment, workload, params, duration, jitter = case
    result = run_scenario(
        Scenario(
            protocol=protocol,
            deployment=deployment,
            workload=workload,
            workload_params=dict(params),
            duration=duration,
            seed=1,
            jitter=jitter,
            delta=1.25,
            plane="columnar-fast",
        )
    )
    digest = hashlib.sha256(result.to_json(indent=2).encode()).hexdigest()
    assert (digest, state_trace_hash(result.cluster)) == _RELAXED_PINS[case]
