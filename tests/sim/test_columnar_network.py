"""The exact plane on mixed traffic -- wide multicasts in the store,
unicasts, self copies and reactive sends in the heap -- against the
heap-only oracle; fault fallback, stats parity and pickling.

The contract under test (see the "Message plane" section of
:mod:`repro.sim.network`): wherever a row waits, the network delivers
exactly the messages a heap-only run delivers, at the same simulated
times, in the same global order, with the same RNG draws, seq numbers
and statistics -- while the store's rows cost one heap cursor instead of
one heap entry each.  Any fault (down node, partition, interceptor)
makes new sends take the heap and parked rows fall back to per-message
delivery-time checks.  Every pair below is (heap-only, store engaged at
fanout 2), over a provider with a delay floor unless the test is about
a provider without one.
"""

import pickle
from types import SimpleNamespace

from oracles import heap_only
from repro.experiments import checkpoint
from repro.sim.engine import Simulator
from repro.sim.network import Network

import pytest


class Ping:
    """Minimal message class."""

    wire_size = 10

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"Ping({self.value})"


class Pong(Ping):
    wire_size = 7


class FloorDelay:
    """Module-level provider (pickles) exposing the floor the store's
    windows rest on: constant cross-node delay, zero self delay."""

    def __init__(self, delay=0.01):
        self.delay = delay

    def __call__(self, a, b):
        return 0.0 if a == b else self.delay

    def delay_floor(self):
        return self.delay


def make_network(store, delay=0.01, jitter=0.0, seed=1):
    """A simulator and its network: every multicast of two or more
    parks in the store when ``store``, else the heap-only oracle."""
    sim = Simulator(seed=seed)
    network = Network(sim, FloorDelay(delay), jitter=jitter)
    if store:
        network.block_fanout = 2
    else:
        heap_only(network)
    return sim, network


def make_pair(**kwargs):
    """(heap-only, store) simulators + networks, identically seeded."""
    return [make_network(store, **kwargs) for store in (False, True)]


def run_traffic(sim, network, n=6):
    """Mixed multicasts, unicasts and reactive sends; returns the trace."""
    trace = []

    def handler(dst):
        def on_message(src, message):
            trace.append((round(sim.now, 12), src, dst, repr(message)))
            # Reactive unicast: odd receivers bounce a Pong to node 0.
            if dst % 2 == 1 and isinstance(message, Ping) and not isinstance(
                message, Pong
            ):
                network.send(dst, 0, Pong(message.value), Pong.wire_size)

        return on_message

    for node in range(n):
        network.register(node, handler(node))
    for round_index in range(4):
        src = round_index % n
        network.multicast(src, range(n), Ping(round_index), Ping.wire_size)
        network.send(src, (src + 1) % n, Ping(100 + round_index), Ping.wire_size)
    sim.run()
    return trace


def snapshot(sim, network):
    stats = network.stats
    return {
        "now": sim.now,
        "seq": sim._seq,
        "rng": sim.rng.getstate(),
        "sent": stats.messages_sent,
        "delivered": stats.messages_delivered,
        "dropped": stats.messages_dropped,
        "bytes": stats.bytes_sent,
        "per_type_bytes": stats.per_type_bytes,
    }


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def test_network_takes_no_plane_argument():
    # One message plane: nothing to choose between, so no knob.
    with pytest.raises(TypeError, match="plane"):
        Network(Simulator(seed=0), lambda a, b: 0.01, plane="object")


# ----------------------------------------------------------------------
# Bit-identity on pristine networks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jitter", [0.0, 0.05])
def test_columnar_trace_matches_object_plane(jitter):
    (sim_o, net_o), (sim_c, net_c) = make_pair(jitter=jitter)
    trace_object = run_traffic(sim_o, net_o)
    trace_columnar = run_traffic(sim_c, net_c)
    assert trace_columnar == trace_object
    assert snapshot(sim_c, net_c) == snapshot(sim_o, net_o)


def test_columnar_uses_fewer_heap_events():
    (sim_o, net_o), (sim_c, net_c) = make_pair()
    run_traffic(sim_o, net_o)
    run_traffic(sim_c, net_c)
    # One cursor per drain vs one entry per message: the store run pops
    # strictly fewer heap events for the identical delivery trace, and
    # the heap deliveries its drain merged inline are not among them.
    assert net_c.stats.plane["merged_rows"] > 0
    assert sim_c.events_processed < sim_o.events_processed


def test_delivery_tie_order_matches_object_plane():
    # One flat delay, zero jitter, and a second wave sent exactly one
    # delay after the first: its fanout (store rows) lands on the very
    # instant the first wave's replies (heap deliveries) do, so the
    # merge of window rows against heap heads is decided purely by seq.
    def run(store):
        sim, network = make_network(store)
        sim.schedule(
            0.01, network.multicast, 2, range(6), Ping("wave"), Ping.wire_size
        )
        return run_traffic(sim, network)

    trace_object, trace_columnar = run(False), run(True)
    # (Pong inherits Ping's repr: ``Ping(100)`` at 0.02 is a reply.)
    at_tie = [rep for t, _, _, rep in trace_object if t == 0.02]
    assert "Ping(wave)" in at_tie and "Ping(100)" in at_tie
    assert trace_columnar == trace_object


# ----------------------------------------------------------------------
# Reactive sends from a drained window
# ----------------------------------------------------------------------
def test_store_drain_answers_each_row_in_order():
    # Three pings parked in the store reach node 1 in one window; each
    # is answered by the ordinary inbox as it is delivered, so the pongs
    # leave in arrival order, exactly as on the heap-only run.
    def run(store):
        sim, network = make_network(store)
        trace = []

        def on_ping(src, message):
            network.send(1, src, Pong(message.value), Pong.wire_size)

        network.register(1, on_ping)
        for node in (0, 2, 3, 4):
            network.register(
                node,
                lambda src, msg, node=node: trace.append(
                    (round(sim.now, 12), src, node, repr(msg))
                ),
            )
        for node in (0, 2, 3):
            network.multicast(node, (1, 4), Ping(node), Ping.wire_size)
        sim.run()
        return trace, snapshot(sim, network), network.stats.plane

    trace_object, stats_object, _ = run(False)
    trace_columnar, stats_columnar, counters = run(True)
    assert counters["window_rows"] > 0
    pongs = [(dst, rep) for _, src, dst, rep in trace_object if src == 1]
    assert pongs == [(0, "Ping(0)"), (2, "Ping(2)"), (3, "Ping(3)")]
    assert trace_columnar == trace_object
    # Same final clock, seq counter, RNG state and wire statistics.
    assert stats_columnar == stats_object


# ----------------------------------------------------------------------
# No delay floor: nothing parks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jitter", [0.0, 0.05])
def test_network_without_floor_keeps_every_row_in_the_heap(jitter):
    # A bare-callable provider advertises no floor, so no window can be
    # proved safe: even at fanout 2 every row takes the heap, and the
    # run is the heap-only run.
    def run(store):
        sim = Simulator(seed=5)
        network = Network(
            sim, lambda a, b: 0.01 if a != b else 0.0, jitter=jitter
        )
        if store:
            network.block_fanout = 2
        else:
            heap_only(network)
        trace = run_traffic(sim, network)
        return trace, snapshot(sim, network), network.stats.plane

    trace_object, stats_object, _ = run(False)
    trace_columnar, stats_columnar, counters = run(True)
    assert not any(counters.values())
    assert trace_columnar == trace_object
    assert stats_columnar == stats_object


# ----------------------------------------------------------------------
# Horizon slicing
# ----------------------------------------------------------------------
def test_horizon_slices_columns_and_resumes():
    # run(until=...) must not deliver rows beyond the horizon -- parked
    # ones or the heap's -- and a later run() must deliver them: the
    # campaign plane's slice loop.
    def run(store):
        sim, network = make_network(store, delay=1.0, seed=1)
        trace = []
        for node in range(3):
            network.register(
                node,
                lambda src, msg, node=node: trace.append(
                    (sim.now, src, node, msg.value)
                ),
            )
        network.multicast(0, range(3), Ping(1), Ping.wire_size)
        sim.run(until=0.5)
        first = list(trace)
        sim.run(until=10.0)
        return first, trace

    first_o, full_o = run(False)
    first_c, full_c = run(True)
    assert first_c == first_o  # nothing before the horizon... (self-row)
    assert full_c == full_o  # ...and everything after resuming


# ----------------------------------------------------------------------
# Fault fallback
# ----------------------------------------------------------------------
def test_mid_flight_crash_drops_on_both_planes():
    def run(store):
        sim, network = make_network(store, delay=1.0, seed=1)
        trace = []
        for node in range(4):
            network.register(
                node,
                lambda src, msg, node=node: trace.append((node, msg.value)),
            )
        network.multicast(0, range(4), Ping(7), Ping.wire_size)
        network.send(1, 2, Ping(8), Ping.wire_size)
        sim.schedule(0.5, network.set_down, 2, True)
        sim.run()
        return trace, snapshot(sim, network)

    trace_object, stats_object = run(False)
    trace_columnar, stats_columnar = run(True)
    assert trace_columnar == trace_object
    assert stats_columnar == stats_object
    assert stats_columnar["dropped"] == 2  # multicast row + unicast row


def test_sends_after_fault_take_object_path_and_match():
    def run(store):
        sim, network = make_network(store, delay=0.01, jitter=0.05, seed=3)
        trace = []
        for node in range(4):
            network.register(
                node,
                lambda src, msg, node=node: trace.append(
                    (round(sim.now, 12), node, msg.value)
                ),
            )

        def interceptor(src, dst, message, delay):
            if message.value == "drop-me":
                return None
            return message, delay * 2.0

        network.multicast(0, range(4), Ping("early"), Ping.wire_size)
        sim.schedule(0.5, network.add_interceptor, interceptor)
        sim.schedule(1.0, network.multicast, 1, range(4), Ping("late"),
                     Ping.wire_size)
        sim.schedule(1.0, network.send, 1, 3, Ping("drop-me"), Ping.wire_size)
        sim.run()
        return trace, snapshot(sim, network)

    trace_object, stats_object = run(False)
    trace_columnar, stats_columnar = run(True)
    assert trace_columnar == trace_object
    assert stats_columnar == stats_object
    # The interceptor-dropped unicast is not counted as sent.
    assert stats_columnar["dropped"] == 1
    assert stats_columnar["per_type_bytes"] == stats_object["per_type_bytes"]


def test_lossy_interceptor_stats_agree_between_planes():
    # A probabilistic-loss interceptor added mid-run, with rows parked:
    # drops must not count as sent, and per_type_bytes must agree
    # byte-for-byte (the loss RNG is seeded per run).
    import random

    def run(store):
        sim, network = make_network(store, delay=0.02, seed=2)
        received = []
        for node in range(5):
            network.register(
                node,
                lambda src, msg, node=node: received.append((node, msg.value)),
            )
        rng = random.Random(99)

        def lossy(src, dst, message, delay):
            if rng.random() < 0.5:
                return None
            return message, delay

        def blast(tag):
            network.multicast(1, range(5), Ping(tag), Ping.wire_size)
            network.send(2, 3, Pong(tag), Pong.wire_size)

        blast("pre-fault")
        sim.schedule(0.1, network.add_interceptor, lossy)
        for start in (0.2, 0.3):
            sim.schedule(start, blast, f"at-{start}")
        sim.run()
        return received, snapshot(sim, network)

    received_object, stats_object = run(False)
    received_columnar, stats_columnar = run(True)
    assert received_columnar == received_object
    assert stats_columnar == stats_object
    assert stats_columnar["dropped"] > 0
    sent_by_type = stats_columnar["per_type_bytes"]
    assert set(sent_by_type) == {"Ping", "Pong"}


# ----------------------------------------------------------------------
# Pickling (checkpoint/resume with rows in flight)
# ----------------------------------------------------------------------
class PicklableEndpoint:
    """Module-level endpoint so the network graph pickles."""

    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def __call__(self, src, message):
        self.received.append((round(self.sim.now, 12), src, message.value))


def test_columnar_network_pickles_with_rows_in_flight():
    def build():
        sim, network = make_network(True, delay=0.5, jitter=0.1, seed=4)
        endpoints = [PicklableEndpoint(sim) for _ in range(3)]
        for node, endpoint in enumerate(endpoints):
            network.register(node, endpoint)
        network.multicast(0, range(3), Ping("m"), Ping.wire_size)
        network.send(1, 2, Ping("u"), Ping.wire_size)
        return sim, network, endpoints

    # Uninterrupted run.
    sim, network, endpoints = build()
    sim.run()
    want = [endpoint.received for endpoint in endpoints]
    want_stats = snapshot(sim, network)

    # Pickled mid-flight: two rows parked behind an armed cursor, and
    # the unicast in the heap -- an entry that holds the delivery
    # closure, so the graph goes through the checkpoint pickler.
    sim, network, endpoints = build()
    sim.run(until=0.1)
    assert network._fast.count == 2 and len(sim._queue) == 2
    graph = SimpleNamespace(cluster=SimpleNamespace(sim=sim, network=network))
    graph, endpoints2 = checkpoint._deserialize_state(
        checkpoint._serialize_state((graph, endpoints))
    )
    checkpoint._rebind_deliveries(graph)
    sim2, network2 = graph.cluster.sim, graph.cluster.network
    sim2.run()
    assert [endpoint.received for endpoint in endpoints2] == want
    assert snapshot(sim2, network2) == want_stats


# ----------------------------------------------------------------------
# Delay floor
# ----------------------------------------------------------------------
def test_network_reads_the_provider_delay_floor():
    # The drain windows on the floor: a wide multicast parks in the
    # store only when the provider advertises one.
    network = Network(Simulator(seed=0), FloorDelay(0.02))
    assert network._delay_floor == 0.02
    # Derived, never pickled: a checkpoint written by a build that stored
    # 0.0 must not keep windows off after a resume.
    assert "_delay_floor" not in network.__getstate__()
    assert pickle.loads(pickle.dumps(network))._delay_floor == 0.02
    # Bare callables advertise no floor.
    network.one_way_delay = lambda a, b: 0.02
    assert network._delay_floor == 0.0
