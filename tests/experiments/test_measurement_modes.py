"""MeasurementPolicy metrics modes: exact and sketch.

``exact`` is the seed behaviour.  ``sketch`` answers from O(1) state:
totals exact, quantiles within the documented relative error of the
exact run.  The mode only observes a run, so the check is two runs of
one seed compared here, not a dual-writing mode of the package.
"""

import math

import pytest

from repro.experiments.runner import (
    METRICS_MODES,
    MeasurementPolicy,
    Scenario,
    prepare_scenario,
    run_scenario,
)
from state_trace import state_trace_hash
from repro.metrics import MetricsSketch


def _scenario(mode=None, **overrides):
    base = dict(
        protocol="pbft",
        deployment="wonderproxy-4",
        workload="open-loop",
        workload_params=dict(rate=150.0, clients=2),
        duration=8.0,
        seed=9,
    )
    if mode is not None:
        base["measurements"] = MeasurementPolicy(metrics=mode)
    base.update(overrides)
    return Scenario(**base)


def test_modes_registry_and_validation():
    assert METRICS_MODES == ("exact", "sketch")
    for gone in ("check", "approximate"):
        with pytest.raises(ValueError, match="unknown metrics mode"):
            MeasurementPolicy(metrics=gone)
    for window in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="window"):
            MeasurementPolicy(window=window)
    with pytest.raises(ValueError, match="bins_per_decade"):
        MeasurementPolicy(bins_per_decade=0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("probe_at", -1.0),
        ("probe_at", float("nan")),
        ("publish_at", float("inf")),
        ("first_search_at", float("nan")),
        ("search_period", 0.0),
        ("search_period", -5.0),
        ("search_period", float("nan")),
        ("search_period", float("inf")),
        ("horizon", float("inf")),
        ("horizon", float("nan")),
        ("horizon", -1.0),
    ],
)
def test_cadence_that_cannot_finish_is_refused(field, value):
    # Each would keep prepare_scenario's search loop from ending, or
    # fail later in the engine with no field named.
    with pytest.raises(ValueError, match=field):
        MeasurementPolicy(**{field: value})


@pytest.mark.parametrize(
    "cadence",
    [
        # 40 + 1e-20 == 40: the step is absorbed before the horizon...
        dict(first_search_at=40.0, search_period=1e-20),
        # ...and at it.
        dict(first_search_at=40.0, horizon=40.0, search_period=1e-20),
        # Half an ulp moves the odd-mantissa horizon but ties back to
        # the even 40 below it, so ``horizon + step > horizon`` is not
        # enough.
        dict(
            first_search_at=40.0,
            horizon=math.nextafter(40.0, 41.0),
            search_period=math.ulp(40.0) / 2,
        ),
        # Finishes, but only after ~133k searches per replica.
        dict(first_search_at=40.0, search_period=1.5e-4),
    ],
    ids=["absorbed", "absorbed-at-horizon", "half-ulp", "too-many"],
)
def test_search_cadence_too_fine_for_its_horizon_is_refused(cadence):
    # Each passes MeasurementPolicy's field checks; only the resolved
    # horizon (the scenario duration when unset) shows the search loop
    # cannot finish in reasonable time, so prepare_scenario refuses it.
    scenario = Scenario(
        protocol="pbft-aware",
        deployment="wonderproxy-4",
        duration=60.0,
        measurements=MeasurementPolicy(**cadence),
    )
    with pytest.raises(ValueError, match="search_period"):
        prepare_scenario(scenario)


def test_a_day_of_searches_queues_one_search_per_replica():
    # Each search queues the replica's next one, so a day-long run
    # starts with a probe, a vector publication and one search per
    # replica in the heap -- not every search of the day (~3,500 per
    # replica at the default cadence).
    scenario = Scenario(
        protocol="pbft-aware",
        deployment="Europe21",
        workload="closed-loop",
        duration=86400.0,
        measurements=MeasurementPolicy(metrics="sketch"),
    )
    cluster = prepare_scenario(scenario).cluster
    assert len(cluster.sim._queue) <= 3 * len(cluster.replicas)


def _protocol_hash(result):
    """``state_trace_hash`` of a finished run with its measurement sinks
    detached -- what the run computed, not how it was measured (the hash
    folds the exact commit list and the client summary, which the two
    modes keep differently)."""
    cluster = result.cluster
    for replica in cluster.replicas:
        replica.metrics = None
    cluster.workload = None
    return state_trace_hash(cluster)


def _within(bound, got, want):
    return abs(got - want) / max(abs(want), 1e-12) <= bound * (1.0 + 1e-9)


def test_sketch_mode_matches_exact_within_bound():
    scenario = _scenario()
    exact = run_scenario(scenario)
    sketch = run_scenario(_scenario("sketch"))

    metrics, reference = sketch.run_metrics, exact.run_metrics
    assert metrics.streaming is True
    assert metrics.total_requests() == reference.total_requests()
    assert metrics.committed_blocks() == reference.committed_blocks()
    assert metrics.throughput(scenario.duration) == reference.throughput(
        scenario.duration
    )

    bound = metrics.sketch.error_bound()
    exact_summary = reference.latency_summary()
    sketch_summary = metrics.latency_summary()
    for key in ("p50", "p90", "p99"):
        assert _within(bound, sketch_summary[key], exact_summary[key]), key
    # The streaming mean is the same sum in the same order; only the
    # exact side's re-sum over the sorted list differs, by association.
    assert sketch_summary["mean"] == pytest.approx(exact_summary["mean"], rel=1e-9)

    # Client side: the sketch saw every completion, and its answers stay
    # inside the same bound.
    exact_client = exact.workload.summary()
    sketch_client = sketch.workload.summary()
    for key in ("requests_sent", "requests_completed"):
        assert sketch_client[key] == exact_client[key], key
    assert exact_client["requests_completed"] > 0
    assert sketch.workload._stream_sketch.blocks == exact_client["requests_completed"]
    client_bound = sketch.workload._stream_sketch.error_bound()
    for key in ("p50_latency", "p90_latency", "p99_latency"):
        assert _within(client_bound, sketch_client[key], exact_client[key]), key
    assert sketch_client["mean_latency"] == pytest.approx(
        exact_client["mean_latency"], rel=1e-9
    )

    # The mode only observes: the same seed runs the same protocol.
    assert _protocol_hash(sketch) == _protocol_hash(exact)


def test_sketch_mode_is_deterministic():
    first = run_scenario(_scenario("sketch")).to_json()
    second = run_scenario(_scenario("sketch")).to_json()
    assert first == second


def test_sketch_mode_keeps_no_per_request_state():
    result = run_scenario(_scenario("sketch"))
    # The streaming twin holds one sketch, not a commit list.
    assert not hasattr(result.run_metrics, "commits")
    assert isinstance(result.run_metrics.sketch, MetricsSketch)
    # Clients stream too: their latency lists stay empty.
    for client in result.workload.clients:
        assert client.latencies == []


def test_closed_loop_clients_stream_in_sketch_mode():
    # The paper's workload measures like every other one: its clients
    # feed the sketch, and nothing per request outlives the request.
    overrides = dict(workload="closed-loop", workload_params=dict(clients=2))
    exact = run_scenario(_scenario(**overrides))
    sketch = run_scenario(_scenario("sketch", **overrides))
    exact_client = exact.workload.summary()
    sketch_client = sketch.workload.summary()
    assert "p50_latency" in sketch_client
    assert sketch_client["requests_completed"] == exact_client["requests_completed"]
    assert exact_client["requests_completed"] > 0
    bound = sketch.workload._stream_sketch.error_bound()
    assert _within(bound, sketch_client["p50_latency"], exact_client["p50_latency"])
    for client in sketch.workload.clients:
        assert client.latencies == []
        assert len(client._voters) <= 1
        assert len(client._send_times) <= 1


def test_policy_window_and_bins_flow_into_the_sketch():
    scenario = _scenario(
        measurements=MeasurementPolicy(metrics="sketch", window=2.0,
                                       bins_per_decade=40),
    )
    result = run_scenario(scenario)
    sketch = result.run_metrics.sketch
    assert sketch.windows.window == 2.0
    assert sketch.hist.bins_per_decade == 40
    # Series answer only at the recorded granularity.
    assert result.run_metrics.throughput_series(8.0, bucket=2.0)
    with pytest.raises(ValueError, match="window"):
        result.run_metrics.throughput_series(8.0, bucket=1.0)
