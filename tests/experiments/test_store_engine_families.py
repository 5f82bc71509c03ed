"""The row store under every engine family and client drive.

``test_plane_equivalence`` holds the store to the heap-only oracle on
one open-loop workload at n = 7.  This file widens that bar:

* every engine family under open-loop, closed-loop and saturated
  drives, plus one deployment wide enough (n = 256) that multicasts park
  in the store at the shipped threshold, is bit-identical to its
  heap-only run -- and a property test draws the seed;
* a run cut while rows wait in the store, at the shipped threshold,
  resumes from disk bit-identically;
* eight pinned runs hold the exact plane's own bytes (result JSON and
  state trace) at n = 300, 21 and 73, so a drain rewrite that should
  not change them cannot drift silently.
"""

import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import heap_only
from repro.experiments.checkpoint import load_checkpoint, save_checkpoint
from repro.experiments.runner import Scenario, prepare_scenario, run_scenario
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
#: multicasts park in the store at the shipped threshold.
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


def _run(scenario, store):
    """Run ``scenario`` heap-only, or with the store engaged: at the
    shipped threshold on a wide deployment, else at fanout 2 (set on the
    instance, as ``heap_only`` does) so n = 7 multicasts park too."""
    result = prepare_scenario(scenario)
    network = result.cluster.network
    if not store:
        heap_only(network)
    elif len(result.cluster.replicas) < network.block_fanout:
        network.block_fanout = 2
    result.run_metrics = result.cluster.run(scenario.duration)
    return result


def _comparable(result):
    metrics = result.metrics()
    # The store's account of itself (drain counters) is the one part of
    # the JSON a heap-only run is not meant to share.
    metrics.pop("plane", None)
    return json.dumps(metrics, sort_keys=True)


def _assert_store_matches_heap_only(scenario):
    heap_result, store_result = _run(scenario, False), _run(scenario, True)
    assert "plane" not in heap_result.metrics()
    assert store_result.metrics()["plane"]["windows"] > 0
    assert _comparable(store_result) == _comparable(heap_result)
    assert state_trace_hash(store_result.cluster) == state_trace_hash(
        heap_result.cluster
    )


@pytest.mark.parametrize(
    "case", _CASES, ids=lambda c: "-".join([c[0], c[1], *(str(v) for _, v in c[3])])
)
def test_every_engine_family_matches_heap_only(case):
    _assert_store_matches_heap_only(_case_scenario(case))


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=st.sampled_from(_CASES[:-1]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_store_matches_heap_only_for_any_seed(case, seed):
    _assert_store_matches_heap_only(_case_scenario(case, seed=seed))


# ----------------------------------------------------------------------
# Checkpoint/resume at the shipped threshold
# ----------------------------------------------------------------------
def test_wide_store_checkpoint_resume_is_bit_identical(tmp_path):
    # No threshold patched: at n = 256 the cut lands while the engine's
    # own multicasts wait in the store with the drain cursor armed.
    scenario = _case_scenario(_CASES[-1])
    baseline = run_scenario(scenario)
    result = prepare_scenario(scenario)
    result.cluster.begin()
    result.cluster.sim.run(until=0.5)
    assert result.cluster.network._fast.count > 0
    path = str(tmp_path / "wide.ckpt")
    save_checkpoint(path, result)
    restored = load_checkpoint(path, expected_scenario=scenario)
    restored.cluster.sim.run(until=scenario.duration)
    restored.run_metrics = restored.cluster.finish()
    # The drain counters say how the run was sliced; what was delivered
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
# Pins: the bytes an exact-plane run produces
# ----------------------------------------------------------------------
_OPEN_LOOP = (("rate", 200.0), ("clients", 2))

#: (protocol, deployment, workload, params, duration, jitter) ->
#: (sha256 of ``result.to_json(indent=2)``, ``state_trace_hash``), seed 1,
#: delta 1.25.  The two n = 300 PBFT runs drain thousands of store
#: windows, the HotStuff ones a few dozen.  Only a change to what the
#: simulation computes may re-record them.
_EXACT_PINS = {
    ("pbft", "world-300", "open-loop", _OPEN_LOOP, 1.5, 0.02): (
        "8f994b2e18905a6793638aedbd223bf25caa46ef148300e3e4d7d228268a62ea",
        "807a6082d0f5ec456ac850d9da9c933db6b5393a6c699c7aa163dbc00bab9722",
    ),
    ("pbft", "world-300", "open-loop", _OPEN_LOOP, 1.5, 0.0): (
        "20ddc558082a673f45de350553502fa8851055d22a2f40c422ab42bc9b08c5db",
        "47098e81e539d7f9107d695f95af36c5d3851e8b9a5f94cbf866bd822c4f654b",
    ),
    ("pbft-optiaware", "Europe21", "open-loop", _OPEN_LOOP, 4.0, 0.02): (
        "ea104a0959da18e01e6ee39fc98d0c2eeb097ea64c313c8ff0890cc861ceb11d",
        "374542343131736447070ff5bdb32b3fe83d0a31b7c37d0687535b9a026a9420",
    ),
    ("pbft-optiaware", "Europe21", "open-loop", _OPEN_LOOP, 4.0, 0.0): (
        "0c8b05a570c6d954683c2184dc16a57f51b6802c3e3871b37742ee6064824454",
        "027564e419c2c625f8641f6b69cf8c1367d6ff7b168bb67129060c1c2fc8808f",
    ),
    ("hotstuff-rr", "world-300", "saturated", (), 4.0, 0.02): (
        "ed3cbc04d840229d703236efb443fb0f5f6da76fce17f45943a60be03387942a",
        "8ddb108f8365bcde46fd4ea1cc6ff5e3f343b6222cfc37e935cbb0f16c2af478",
    ),
    ("hotstuff-rr", "world-300", "saturated", (), 4.0, 0.0): (
        "9fb02faebed36feb53e23b8f0a9f43942624e34eb68f498422538bb2fb72f0f7",
        "6f7e432a08a77980ca0b0caa1655e3fc7fe861f066aa4a6eab267fcbba9ec7ad",
    ),
    ("kauri", "world-73", "saturated", (), 6.0, 0.02): (
        "b375c197973a4ac4cb26d7a7b82687c8b7f081e0059b26939e62630391260e46",
        "b00b6eeadc718c257629357e3e7e0911b8f3dd94bd0ac27ba2f53016ed72dfc2",
    ),
    ("kauri", "world-73", "saturated", (), 6.0, 0.0): (
        "7346645eb4892854e6bcd489ac5ef546dd5a0b780520d2b9fed0f52dd1aced91",
        "d8e27b95b73f4218c91d3abb2ed49fa8b2738ce8da44f9304eaad885f39dbf76",
    ),
}


@pytest.mark.parametrize(
    "case", sorted(_EXACT_PINS), ids=lambda c: f"{c[0]}-{c[1]}-j{c[5]}"
)
def test_exact_plane_reproduces_recorded_bytes(case):
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
        )
    )
    digest = hashlib.sha256(result.to_json(indent=2).encode()).hexdigest()
    assert (digest, state_trace_hash(result.cluster)) == _EXACT_PINS[case]
