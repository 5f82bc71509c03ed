"""Delivery order, not just end state: heap-only vs the store.

``state_trace_hash`` proves two runs *ended* in the same place; the
:class:`~oracles.DeliveryOrderRecorder` proves they took the same road:
every handler call, its simulated instant, its node, its sender and its
message class, in global call order.  This is the equivalence
``plane="check"`` used to assert on demand, held here against the
heap-only oracle (``oracles.heap_only``): over every engine family,
seeds, jitter levels and ``block_fanout`` thresholds -- 2 and 4 push
every multicast of these small deployments through the wide-row store
(windows, merge, put-back), 256 leaves them in the heap -- at the
shipped threshold on an n = 256 all-to-all, and across a checkpoint cut
with wide rows and heap deliveries in flight together.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fakes import FakeDelay
from oracles import DeliveryOrderRecorder, heap_only
from repro.experiments.checkpoint import load_checkpoint, save_checkpoint
from repro.experiments.runner import Scenario, prepare_scenario, run_scenario
from state_trace import state_trace_hash
from repro.sim import network as network_mod
from repro.sim.network import Network

#: (protocol, deployment, workload, workload_params, duration)
_CASES = [
    ("pbft", "Europe21", "closed-loop", (("clients", 3),), 1.5),
    ("pbft", "wonderproxy-4", "open-loop", (("rate", 200.0), ("clients", 2)), 2.0),
    ("pbft-optiaware", "wonderproxy-7", "open-loop",
     (("rate", 120.0), ("clients", 2)), 2.0),
    ("hotstuff-rr", "Europe21", "saturated", (), 2.0),
    ("hotstuff-fixed", "wonderproxy-16", "saturated", (), 2.0),
    ("kauri", "Europe21", "saturated", (), 2.0),
    ("optitree", "Europe21", "saturated", (), 2.0),
]


def _scenario(case, **overrides):
    protocol, deployment, workload, params, duration = case
    base = dict(
        protocol=protocol,
        deployment=deployment,
        workload=workload,
        workload_params=dict(params),
        duration=duration,
        delta=1.25,
        search_iterations=500,
    )
    base.update(overrides)
    return Scenario(**base)


def _recorded_run(scenario, block_fanout=None, sparse_rows=None):
    """Run with the recorder installed; ``block_fanout`` (the heap-only
    oracle when None) and the sparse threshold, when given, apply to
    this run only.  ``result.parked`` sums the cross-node fanout of the
    multicasts that went to the store."""
    result = prepare_scenario(scenario)
    network = result.cluster.network
    if block_fanout is None:
        heap_only(network)
    else:
        network.block_fanout = block_fanout
    result.parked = 0
    to_store = network._multicast_store

    def counting(src, dsts, message, size):
        result.parked += sum(dst != src for dst in dsts)
        to_store(src, dsts, message, size)

    network._multicast_store = counting
    recorder = DeliveryOrderRecorder(network)
    default_sparse = network_mod._SPARSE_ROWS
    if sparse_rows is not None:
        network_mod._SPARSE_ROWS = sparse_rows
    try:
        result.run_metrics = result.cluster.run(scenario.duration)
    finally:
        network_mod._SPARSE_ROWS = default_sparse
    return result, recorder


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=st.sampled_from(_CASES),
    seed=st.integers(min_value=0, max_value=2**16),
    jitter=st.sampled_from([0.0, 0.02, 0.05]),
    block_fanout=st.sampled_from([2, 4, 256]),
    dense=st.booleans(),
)
def test_columnar_delivers_in_object_order(case, seed, jitter, block_fanout, dense):
    # ``dense`` switches the sparse-store rule off, so these small
    # backlogs go through delay-floor windows like an n=512 all-to-all.
    scenario = _scenario(case, seed=seed, jitter=jitter)
    object_result, object_order = _recorded_run(scenario)
    columnar_result, columnar_order = _recorded_run(
        scenario, block_fanout, sparse_rows=0 if dense else None
    )
    assert columnar_order.count == object_order.count > 0
    assert columnar_order.digest == object_order.digest
    assert state_trace_hash(columnar_result.cluster) == state_trace_hash(
        object_result.cluster
    )
    assert "plane" not in object_result.metrics()
    # Every one of these deployments has a delay floor, so the threshold
    # alone decides whether the store engages -- and with it, whether
    # the result JSON carries the counters.
    counters = columnar_result.metrics().get("plane")
    assert (counters is not None) == (block_fanout < 256)
    if counters is not None:
        network = columnar_result.cluster.network
        # The run is pristine: a window row is a parked row, delivered
        # once; what the drains merged came out of the heap, as did
        # everything the engine popped itself.
        still_parked = network._fast.count - network._fast.lo
        assert counters["window_rows"] == columnar_result.parked - still_parked > 0
        assert (
            counters["window_rows"] + counters["merged_rows"]
            <= network.stats.messages_delivered
        )


def test_recorder_sees_a_reordering():
    # The oracle is only worth its cost if it is strictly stronger than
    # the end-state hash: two runs that differ in one delay end in the
    # same state (nothing depends on which of two Prepares came first)
    # but not by the same road.
    case = _CASES[0]

    def run(skew):
        result = prepare_scenario(_scenario(case, seed=3, jitter=0.0))
        network = result.cluster.network
        inner = network.one_way_delay
        network.one_way_delay = FakeDelay(lambda a, b: inner(a, b) + (
            skew if (a, b) == (1, 2) else 0.0
        ))
        recorder = DeliveryOrderRecorder(network, keep=True)
        result.run_metrics = result.cluster.run(0.3)
        return recorder

    straight, skewed = run(0.0), run(1e-4)
    assert straight.count == skewed.count
    assert sorted(row[1:] for row in straight.rows) == sorted(
        row[1:] for row in skewed.rows
    )
    assert straight.digest != skewed.digest


# ----------------------------------------------------------------------
# Checkpoints with wide rows in flight
# ----------------------------------------------------------------------
@pytest.fixture
def small_fanout(monkeypatch):
    monkeypatch.setattr(Network, "block_fanout", 4)


def test_wide_rows_survive_a_checkpoint(tmp_path, small_fanout):
    scenario = _scenario(_CASES[0], seed=7, jitter=0.02, duration=3.0)
    baseline = run_scenario(scenario)

    result = prepare_scenario(scenario)
    result.cluster.begin()
    result.cluster.sim.run(until=1.3)
    network = result.cluster.network
    assert network._fast.count > network._fast.lo  # rows parked at the cut...
    assert any(  # ...beside deliveries waiting in the heap
        entry[3] is network._deliver_bound for entry in result.cluster.sim._queue
    )
    path = str(tmp_path / "wide.ckpt")
    save_checkpoint(path, result)
    restored = load_checkpoint(path, expected_scenario=scenario)
    restored.cluster.sim.run(until=scenario.duration)
    restored.run_metrics = restored.cluster.finish()

    restored_metrics, baseline_metrics = restored.metrics(), baseline.metrics()
    restored_plane = restored_metrics.pop("plane")
    baseline_plane = baseline_metrics.pop("plane")
    # (Where the cut falls moves windows and put-backs, and with them
    # which heap deliveries a drain merged and which the engine popped.)
    for invariant in ("window_rows", "fault_fallbacks"):
        assert restored_plane[invariant] == baseline_plane[invariant]
    assert restored_metrics == baseline_metrics
    assert state_trace_hash(restored.cluster) == state_trace_hash(
        baseline.cluster
    )


# ----------------------------------------------------------------------
# The shipped threshold, in the dense regime
# ----------------------------------------------------------------------
def test_store_at_the_real_threshold_delivers_in_heap_order():
    # Everything above lowers ``block_fanout``; here it is the constant
    # that ships.  PBFT's all-to-all at n = 256 keeps ~65k rows parked --
    # the dense regime: delay-floor windows, merged against the client's
    # and the replies' heap entries.
    scenario = Scenario(
        protocol="pbft", deployment="world-256", workload="closed-loop",
        duration=0.3, seed=1,
    )
    heap_result, heap_order = _recorded_run(scenario)
    store_result, store_order = _recorded_run(scenario, Network.block_fanout)
    assert store_order.count == heap_order.count > 100_000
    assert store_order.digest == heap_order.digest
    assert state_trace_hash(store_result.cluster) == state_trace_hash(
        heap_result.cluster
    )
    counters = store_result.metrics()["plane"]
    assert counters["windows"] > 0 and counters["merged_rows"] > 0
    assert counters["window_rows"] > network_mod._SPARSE_ROWS
