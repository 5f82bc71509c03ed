"""Relaxed message plane: columnar-fast vs columnar equivalence.

``plane='columnar-fast'`` coalesces same-destination rows inside
barrier windows, so it is NOT bit-identical to the exact planes --
the contract is documented equivalence on final metrics: equal commit
counts, per-replica commit heights and client request totals, and
latency quantiles within the :class:`repro.metrics.MetricsSketch`
error bound.  ``plane='check-fast'`` runs both twins and raises
:class:`PlaneDivergence` on the first violation; the property test
below drives it across protocols, workloads and seeds.

Faulted scenarios silently fall back to the object plane (same rule as
columnar), and the structured-array spine checkpoints: a cut/resumed
columnar-fast run replays bit-identically to the uninterrupted one.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.checkpoint import load_checkpoint, save_checkpoint
from repro.experiments.runner import (
    FaultSpec,
    PlaneDivergence,
    Scenario,
    prepare_scenario,
    run_scenario,
)
from repro.experiments.trace import state_trace_hash


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


#: (protocol, workload, workload_params) -- every engine family, both
#: open- and closed-loop client drives where the protocol supports them.
_CASES = [
    ("pbft", "open-loop", (("rate", 120.0), ("clients", 2))),
    ("pbft", "closed-loop", (("clients", 3),)),
    ("pbft-optiaware", "open-loop", (("rate", 120.0), ("clients", 2))),
    ("hotstuff-rr", "saturated", ()),
    ("kauri", "saturated", ()),
]


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
    # check-fast reruns the scenario on both planes and raises
    # PlaneDivergence on any count mismatch or quantile outside the
    # sketch error bound -- the property is simply that it returns.
    protocol, workload, params = case
    result = run_scenario(
        _scenario(protocol, workload, params, seed=seed, plane="check-fast")
    )
    assert result.cluster.network.plane == "columnar-fast"
    assert result.scenario.describe()["plane"] == "check-fast"


@pytest.mark.parametrize("case", _CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_every_engine_family_passes_check_fast(case):
    protocol, workload, params = case
    result = run_scenario(
        _scenario(protocol, workload, params, plane="check-fast")
    )
    assert result.run_metrics is not None


def test_check_fast_rejects_jitter():
    with pytest.raises(ValueError, match="jitter"):
        run_scenario(
            _scenario(
                "pbft",
                "open-loop",
                {"rate": 120.0, "clients": 2},
                jitter=0.02,
                plane="check-fast",
            )
        )


def test_check_fast_rejects_workload_instances():
    from repro.workloads import make_workload

    scenario = _scenario("pbft", "open-loop", {}, plane="check-fast")
    scenario.workload = make_workload("open-loop", rate=120.0, clients=2)
    scenario.workload_params = {}
    with pytest.raises(ValueError, match="named workload"):
        run_scenario(scenario)


def test_prepare_rejects_check_fast_plane():
    with pytest.raises(ValueError, match="run_scenario"):
        prepare_scenario(
            _scenario(
                "pbft", "open-loop", {"rate": 120.0, "clients": 2},
                plane="check-fast",
            )
        )


def test_check_fast_raises_on_divergence(monkeypatch):
    import repro.experiments.runner as runner_mod

    heights = iter([[3, 3, 3, 3, 3, 3, 3], [3, 3, 3, 3, 3, 3, 2]])
    monkeypatch.setattr(
        runner_mod, "_commit_heights", lambda cluster: next(heights)
    )
    with pytest.raises(PlaneDivergence, match="commit heights"):
        run_scenario(
            _scenario(
                "hotstuff-rr", "saturated", {}, duration=1.0,
                plane="check-fast",
            )
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
