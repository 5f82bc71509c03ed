"""Workload generator tests: determinism, Poisson statistics, bursty
phase transitions, Zipf skew normalization, ramp monotonicity."""

import math

import pytest

from fakes import FakeDelay
from repro.consensus.messages import ClientRequest, Reply
from repro.metrics import MetricsSketch, RunMetrics
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.workloads import (
    BurstyWorkload,
    ClosedLoopWorkload,
    ClusterBinding,
    OpenLoopWorkload,
    RampWorkload,
    SkewedWorkload,
    make_workload,
    zipf_weights,
)

N, F = 7, 2
LINK_DELAY = 0.01


def echo_harness(seed=0, n=N):
    """A simulator plus ``n`` stub replicas that reply to every request."""
    sim = Simulator(seed=seed)
    network = Network(sim, FakeDelay(lambda a, b: LINK_DELAY))

    def make_handler(replica_id):
        def handler(src, message):
            if isinstance(message, ClientRequest):
                network.send(
                    replica_id,
                    message.client_id,
                    Reply(replica_id, message.request_id, sim.now),
                )

        return handler

    for replica_id in range(n):
        network.register(replica_id, make_handler(replica_id))
    return sim, network


def bind(workload, sim, network, n=N, f=F, replies_needed=None):
    workload.bind(
        ClusterBinding(
            sim=sim,
            network=network,
            n=n,
            replies_needed=replies_needed if replies_needed is not None else f + 1,
            place_client=lambda client_id, site: None,
        )
    )
    return workload


class RecordingOpenLoop(OpenLoopWorkload):
    """Open-loop workload that records arrival times for statistics."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.arrival_times = []

    def _fire(self):
        if self.running:
            self.arrival_times.append(self.binding.sim.now)
        super()._fire()


class RecordingBursty(RecordingOpenLoop, BurstyWorkload):
    pass


class RecordingRamp(RecordingOpenLoop, RampWorkload):
    pass


def run_workload(workload, duration, seed=0):
    sim, network = echo_harness(seed=seed)
    bind(workload, sim, network)
    workload.start()
    sim.run(until=duration)
    workload.stop()
    return workload


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_open_loop_deterministic_under_fixed_seed():
    a = run_workload(RecordingOpenLoop(rate=80.0), duration=10.0, seed=5)
    b = run_workload(RecordingOpenLoop(rate=80.0), duration=10.0, seed=5)
    assert a.arrival_times == b.arrival_times
    assert a.metrics.commits == b.metrics.commits


def test_open_loop_seed_changes_the_trace():
    a = run_workload(RecordingOpenLoop(rate=80.0), duration=10.0, seed=5)
    b = run_workload(RecordingOpenLoop(rate=80.0), duration=10.0, seed=6)
    assert a.arrival_times != b.arrival_times


# ----------------------------------------------------------------------
# Poisson statistics (sanity bounds, no chi-square machinery)
# ----------------------------------------------------------------------
def test_poisson_arrival_count_within_four_sigma():
    rate, duration = 200.0, 50.0
    workload = run_workload(RecordingOpenLoop(rate=rate), duration=duration, seed=1)
    expected = rate * duration
    sigma = math.sqrt(expected)
    assert abs(len(workload.arrival_times) - expected) < 4 * sigma


def test_poisson_interarrival_mean_and_shape():
    rate, duration = 200.0, 50.0
    workload = run_workload(RecordingOpenLoop(rate=rate), duration=duration, seed=2)
    times = workload.arrival_times
    gaps = [b - a for a, b in zip(times, times[1:])]
    mean = sum(gaps) / len(gaps)
    assert abs(mean - 1.0 / rate) < 0.10 / rate  # within 10% of 1/lambda
    # Memoryless shape: P(gap < mean) = 1 - 1/e for an exponential.
    below = sum(1 for gap in gaps if gap < mean) / len(gaps)
    assert abs(below - (1.0 - math.exp(-1.0))) < 0.05


# ----------------------------------------------------------------------
# Bursty phase transitions
# ----------------------------------------------------------------------
def test_bursty_silent_off_phases_and_active_on_phases():
    workload = run_workload(
        RecordingBursty(on_rate=100.0, off_rate=0.0, on_duration=2.0, off_duration=2.0),
        duration=12.0,
        seed=3,
    )
    assert workload.arrival_times, "bursts must produce traffic"
    for time in workload.arrival_times:
        assert (time % 4.0) < 2.0, f"arrival at {time} falls in an off phase"
    # Every on phase sees traffic (3 full cycles in 12 s).
    cycles = {int(time // 4.0) for time in workload.arrival_times}
    assert cycles == {0, 1, 2}


def test_bursty_off_rate_trickles():
    workload = run_workload(
        RecordingBursty(on_rate=200.0, off_rate=10.0, on_duration=2.0, off_duration=2.0),
        duration=20.0,
        seed=4,
    )
    on = sum(1 for t in workload.arrival_times if (t % 4.0) < 2.0)
    off = len(workload.arrival_times) - on
    assert off > 0
    assert on > 5 * off  # 20x rate ratio, loose 5x bound


# ----------------------------------------------------------------------
# Zipf skew
# ----------------------------------------------------------------------
def test_zipf_weights_normalized_and_monotone():
    for skew in (0.0, 0.8, 1.0, 2.0):
        weights = zipf_weights(11, skew)
        assert abs(sum(weights) - 1.0) < 1e-12
        assert all(a >= b for a, b in zip(weights, weights[1:]))
    assert zipf_weights(5, 0.0) == pytest.approx([0.2] * 5)


def test_skewed_workload_concentrates_on_low_ranks():
    workload = run_workload(
        SkewedWorkload(rate=300.0, clients=5, skew=1.5), duration=20.0, seed=7
    )
    sent = [client.sent for client in workload.clients]
    assert sum(sent) > 0
    assert sent[0] == max(sent)
    assert sent[0] > 3 * sent[-1]  # zipf(1.5): w0/w4 ~ 11x, loose 3x bound


def test_skewed_workload_caps_clients_at_deployment_size():
    sim, network = echo_harness()
    workload = bind(SkewedWorkload(rate=10.0, clients=50), sim, network)
    assert len(workload.clients) == N
    assert abs(sum(workload.weights) - 1.0) < 1e-12


# ----------------------------------------------------------------------
# Ramp
# ----------------------------------------------------------------------
def test_ramp_rate_profile_is_monotone():
    workload = RampWorkload(start_rate=10.0, end_rate=100.0, ramp_duration=30.0)
    samples = [workload.rate_at(t) for t in (0.0, 7.5, 15.0, 22.5, 29.9, 35.0)]
    assert all(a <= b for a, b in zip(samples, samples[1:]))
    assert samples[0] == 10.0
    assert samples[-1] == 100.0


def test_ramp_traffic_increases_over_time():
    workload = run_workload(
        RecordingRamp(start_rate=20.0, end_rate=200.0, ramp_duration=30.0),
        duration=30.0,
        seed=8,
    )
    first = sum(1 for t in workload.arrival_times if t < 10.0)
    last = sum(1 for t in workload.arrival_times if t >= 20.0)
    assert last > 2 * first


# ----------------------------------------------------------------------
# Closed loop and shared machinery
# ----------------------------------------------------------------------
def test_closed_loop_keeps_one_request_outstanding():
    workload = run_workload(ClosedLoopWorkload(), duration=2.0)
    client = workload.clients[0]
    assert client.completed > 10
    assert client.sent - client.completed <= 1  # at most the in-flight one
    # Round trip through the echo harness: request + reply link delays
    # (up to float accumulation in the virtual clock).
    for event in workload.metrics.commits:
        assert event.latency >= 2 * LINK_DELAY - 1e-9


def test_closed_loop_think_time_summary_is_pinned():
    # Two think-time clients on a real engine: each completion schedules
    # one resubmission ``think_time`` later, on the client that completed.
    from repro.experiments.runner import Scenario, run_scenario

    result = run_scenario(
        Scenario(
            protocol="pbft",
            deployment="wonderproxy-4",
            workload="closed-loop",
            workload_params=dict(clients=2, think_time=0.05),
            duration=5.0,
            seed=2,
        )
    )
    assert result.workload.summary() == {
        "requests_sent": 47,
        "requests_completed": 46,
        "mean_latency": 0.16474887890613651,
        "p50_latency": 0.1645882827692644,
        "p90_latency": 0.16551057131867997,
        "p99_latency": 0.20195793700319278,
    }
    assert [client.sent for client in result.workload.clients] == [24, 23]


def test_every_completion_is_one_event_in_the_workload_observer():
    workload = run_workload(OpenLoopWorkload(rate=50.0, clients=3), duration=5.0)
    events = workload.metrics.commits
    assert len(events) == workload.completed > 0
    for client in workload.clients:
        assert client.metrics is workload.metrics
    # (request id, completion time, send time, one request), recorded in
    # completion order by whichever client completed.
    times = [event.commit_time for event in events]
    assert times == sorted(times)
    last_id = max(client.next_request for client in workload.clients)
    for event in events:
        assert 1 <= event.height <= last_id
        assert event.payload_count == 1
        assert event.latency >= 2 * LINK_DELAY - 1e-9
    # The summary is the two counts plus the observer's summary, renamed.
    stats = workload.metrics.latency_summary()
    assert workload.summary() == {
        "requests_sent": workload.sent,
        "requests_completed": workload.completed,
        "mean_latency": stats["mean"],
        "p50_latency": stats["p50"],
        "p90_latency": stats["p90"],
        "p99_latency": stats["p99"],
    }


def test_rebinding_starts_a_fresh_exact_observer():
    assert OpenLoopWorkload().summary() == {
        "requests_sent": 0,
        "requests_completed": 0,
    }
    workload = run_workload(OpenLoopWorkload(rate=50.0), duration=2.0)
    first = workload.metrics
    workload.use_metrics(MetricsSketch())
    assert workload.clients[0].metrics is workload.metrics
    sim, network = echo_harness(seed=1)
    bind(workload, sim, network)
    assert isinstance(workload.metrics, RunMetrics)
    assert workload.metrics is not first
    assert workload.metrics.commits == []
    assert workload.clients[0].metrics is workload.metrics


@pytest.mark.parametrize("clients", [1, 3])
def test_client_latency_series_is_the_workload_series(clients):
    # ``cluster.client.latency_series`` (Fig. 7): a one-client workload's
    # own series, the merged series of every client otherwise.
    workload = run_workload(
        OpenLoopWorkload(rate=60.0, clients=clients), duration=5.0
    )
    sums, counts = {}, {}
    for event in workload.metrics.commits:
        index = int(event.commit_time / 2.0)
        sums[index] = sums.get(index, 0.0) + (event.commit_time - event.propose_time)
        counts[index] = counts.get(index, 0) + 1
    expected = [(index * 2.0, sums[index] / counts[index]) for index in sorted(sums)]
    assert expected
    for client in workload.clients:
        assert client.latency_series(5.0, bucket=2.0) == expected


def test_workload_summary_reports_percentiles():
    workload = run_workload(OpenLoopWorkload(rate=50.0), duration=5.0)
    summary = workload.summary()
    assert summary["requests_completed"] > 0
    assert summary["p50_latency"] <= summary["p90_latency"] <= summary["p99_latency"]


def test_make_workload_registry():
    workload = make_workload("bursty", on_rate=42.0)
    assert isinstance(workload, BurstyWorkload)
    assert workload.on_rate == 42.0
    with pytest.raises(ValueError, match="unknown workload"):
        make_workload("nope")


def test_workloads_package_imports_standalone():
    """repro.workloads must be importable before repro.consensus (the
    engines import workloads.base at class-definition time, so a
    module-level back-import would be circular)."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c",
         "import repro.workloads; import repro.workloads.closed_loop"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_bursty_non_exact_durations_terminate():
    # Phase durations that are not float-exact used to make next_change()
    # return the current time, livelocking the simulation at one instant.
    workload = run_workload(
        RecordingBursty(on_rate=50.0, off_rate=0.0,
                        on_duration=1.1, off_duration=2.2),
        duration=12.0,
        seed=9,
    )
    assert workload.arrival_times  # made progress and finished


def test_ramp_non_exact_steps_terminate():
    workload = run_workload(
        RecordingRamp(start_rate=30.0, end_rate=90.0,
                      ramp_duration=3.3, steps=7),
        duration=6.0,
        seed=9,
    )
    assert workload.arrival_times


def test_skewed_rebind_recomputes_client_clamp():
    workload = SkewedWorkload(rate=10.0, clients=10)
    sim, network = echo_harness(n=4)
    bind(workload, sim, network, n=4)
    assert len(workload.clients) == 4
    sim2, network2 = echo_harness(n=9)
    bind(workload, sim2, network2, n=9)
    assert len(workload.clients) == 9  # not stuck at the earlier clamp


def test_zero_clients_rejected_at_construction():
    with pytest.raises(ValueError, match="at least one client"):
        OpenLoopWorkload(rate=10.0, clients=0)
    with pytest.raises(ValueError, match="at least one client"):
        ClosedLoopWorkload(clients=-1)


@pytest.mark.parametrize(
    "protocol, workload, params",
    [
        ("pbft", "closed-loop", {"clients": 2}),
        ("pbft", "open-loop", {"rate": 10.0, "clients": 2}),
        ("hotstuff-rr", "open-loop", {"rate": 10.0, "clients": 2}),
    ],
)
def test_client_ids_stay_clear_of_replica_ids_above_1000(protocol, workload, params):
    # At n = 1024 the fixed base 1000 would hand the first clients live
    # replica ids, and the delay provider would send replica 1000's
    # traffic from a client's city.
    from repro.experiments.runner import Scenario, prepare_scenario

    cluster = prepare_scenario(
        Scenario(
            protocol=protocol,
            deployment="world-1024",
            workload=workload,
            workload_params=params,
            duration=0.3,
            seed=1,
        )
    ).cluster
    n = cluster.n
    assert [client.id for client in cluster.workload.clients] == [n, n + 1]
    handlers = cluster.network._handlers
    for replica in cluster.replicas:
        assert handlers[replica.id].__self__ is replica
    delay = cluster.network.one_way_delay
    assert delay(1000, 5) == cluster.deployment.latency.one_way(1000, 5)
