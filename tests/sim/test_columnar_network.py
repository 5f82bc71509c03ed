"""The exact plane on mixed traffic -- wide multicasts in the store,
unicasts, self copies and reactive sends in the heap -- against the
heap-only oracle; the relaxed plane's per-row drain; fault fallback,
stats parity and pickling.

The contract under test (see the "Message plane" section of
:mod:`repro.sim.network`): wherever a row waits, the network delivers
exactly the messages a heap-only run delivers, at the same simulated
times, in the same global order, with the same RNG draws, seq numbers
and statistics -- while the store's rows cost one heap cursor instead of
one heap entry each.  Any fault (down node, partition, interceptor)
makes new sends take the heap and parked rows fall back to per-message
delivery-time checks.  Every pair below is (heap-only, store engaged at
fanout 2) over a provider with a delay floor.
"""

import pickle
from types import SimpleNamespace

from oracles import heap_only
from repro.experiments import checkpoint
from repro.sim.engine import Simulator
from repro.sim.network import MESSAGE_PLANES, Network

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
def test_plane_vocabulary_and_validation():
    assert MESSAGE_PLANES == ("object", "columnar", "columnar-fast")
    sim = Simulator(seed=0)
    # One exact plane under two accepted names, no behaviour between them.
    assert Network(sim, lambda a, b: 0.01, plane="columnar").plane == "object"
    for plane in ("check", "check-fast", "rowwise"):
        with pytest.raises(ValueError, match="unknown message plane"):
            Network(sim, lambda a, b: 0.01, plane=plane)


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
# The relaxed drain: destination-major, per row, through the inboxes
# ----------------------------------------------------------------------
def test_relaxed_drain_answers_each_row_in_order():
    # Three pings reach node 1 in one window; each is answered by the
    # ordinary inbox before the next is delivered, so the pongs leave in
    # arrival order on both planes.
    def run(plane):
        sim = Simulator(seed=1)
        network = Network(sim, lambda a, b: 0.01, plane=plane)
        trace = []

        def on_ping(src, message):
            network.send(1, src, Pong(message.value), Pong.wire_size)

        network.register(1, on_ping)
        for node in (0, 2, 3):
            network.register(
                node,
                lambda src, msg, node=node: trace.append(
                    (round(sim.now, 12), src, node, msg.value)
                ),
            )
            network.send(node, 1, Ping(node), Ping.wire_size)
        sim.run()
        return trace, snapshot(sim, network)

    trace_object, stats_object = run("object")
    trace_fast, stats_fast = run("columnar-fast")
    assert [value for _, _, _, value in trace_object] == [0, 2, 3]
    assert trace_fast == trace_object
    # Same final clock, seq counter, RNG state and wire statistics.
    assert stats_fast == stats_object


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
# Relaxed plane (columnar-fast)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("plane", ["columnar", "columnar-fast"])
def test_columnar_planes_read_the_provider_delay_floor(plane):
    # Both drains window on the floor: the relaxed one caps its passes
    # with it, the exact one needs it to park wide multicasts at all --
    # under either of its names, and by default.
    sim = Simulator(seed=0)
    network = Network(sim, FloorDelay(0.02), plane=plane)
    assert network._delay_floor == 0.02
    assert Network(Simulator(seed=0), FloorDelay(0.02))._delay_floor == 0.02
    # Derived, never pickled: a checkpoint written by a build whose
    # default plane stored 0.0 must not keep windows off after a resume.
    assert "_delay_floor" not in network.__getstate__()
    assert pickle.loads(pickle.dumps(network))._delay_floor == 0.02
    # Bare callables advertise no floor.
    network.one_way_delay = lambda a, b: 0.02
    assert network._delay_floor == 0.0


def test_fast_plane_delivers_object_multiset_in_dst_time_order():
    # The relaxed contract: same deliveries at the same timestamps as
    # the object plane (as a multiset -- global interleaving is free),
    # and with a positive floor each destination observes its rows in
    # non-decreasing time order.
    def run(plane):
        sim = Simulator(seed=3)
        network = Network(sim, FloorDelay(), plane=plane)
        trace = run_traffic(sim, network)
        stats = snapshot(sim, network)
        return trace, stats

    trace_object, stats_object = run("object")
    trace_fast, stats_fast = run("columnar-fast")
    assert sorted(trace_fast) == sorted(trace_object)
    for key in ("seq", "sent", "delivered", "dropped", "bytes",
                "per_type_bytes"):
        assert stats_fast[key] == stats_object[key], key
    per_dst = {}
    for t, src, dst, rep in trace_fast:
        per_dst.setdefault(dst, []).append(t)
    for dst, times in per_dst.items():
        assert times == sorted(times), dst


def test_fast_plane_without_floor_keeps_barrier_equivalence():
    # A bare-callable provider (floor 0.0) disables window capping;
    # barrier-level coalescing must still deliver the object plane's
    # exact multiset of (time, src, dst, message) rows.
    def run(plane):
        sim = Simulator(seed=5)
        network = Network(sim, lambda a, b: 0.01 if a != b else 0.0,
                          plane=plane)
        return run_traffic(sim, network)

    assert sorted(run("columnar-fast")) == sorted(run("object"))


def test_fast_network_pickles_with_rows_in_flight():
    def build():
        sim = Simulator(seed=4)
        network = Network(
            sim, FloorDelay(0.5), jitter=0.1, plane="columnar-fast"
        )
        endpoints = [PicklableEndpoint(sim) for _ in range(3)]
        for node, endpoint in enumerate(endpoints):
            network.register(node, endpoint)
        network.multicast(0, range(3), Ping("m"), Ping.wire_size)
        network.send(1, 2, Ping("u"), Ping.wire_size)
        return sim, network, endpoints

    sim, network, endpoints = build()
    sim.run()
    want = [endpoint.received for endpoint in endpoints]
    want_stats = snapshot(sim, network)

    # Cut while the structured column holds rows and the drain cursor
    # is armed: __getstate__ snapshots buf[:count] + pool + cursor keys.
    sim, network, endpoints = build()
    sim.run(until=0.1)
    assert network._fast.count > 0
    sim2, network2, endpoints2 = pickle.loads(
        pickle.dumps((sim, network, endpoints))
    )
    sim2.run()
    assert [endpoint.received for endpoint in endpoints2] == want
    assert snapshot(sim2, network2) == want_stats
