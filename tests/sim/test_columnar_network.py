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

from oracles import DeliveryOrderRecorder, heap_only
from repro.experiments import checkpoint
from repro.sim.engine import Simulator
from repro.sim.network import _UNRESOLVED, Network

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


# ----------------------------------------------------------------------
# The handler table (Network._window_handlers)
# ----------------------------------------------------------------------
class Spread:
    """Distinct per-pair delays, so windows interleave rows of many
    multicasts, and the floor the windowed drain needs."""

    def __call__(self, a, b):
        return 0.0 if a == b else 0.01 + ((a * 7 + b * 3) % 11) * 0.002

    def delay_floor(self):
        return 0.01


class Echo(Ping):
    """Reactive multicast: the sender's successor answers each of the
    first two waves with another Echo and a Pong (see ``Node``)."""


class Node:
    """A replica-shaped endpoint: its inbox resolves ``handle_<Class>``
    on first sight and caches the answer (``None`` for a class it has no
    handler for) in the live map it hands ``register_dispatch`` --
    unless ``routed`` is False, when it has an inbox and no route."""

    def __init__(self, sim, network, node_id, n, trace, routed=True):
        self.sim = sim
        self.network = network
        self.id = node_id
        self.n = n
        self.trace = trace
        self.cache = {}
        network.register(node_id, self.on_message)
        if routed:
            network.register_dispatch(node_id, self.cache)

    def on_message(self, src, message):
        cls = message.__class__
        try:
            handler = self.cache[cls]
        except KeyError:
            handler = getattr(self, f"handle_{cls.__name__}", None)
            self.cache[cls] = handler
        if handler is not None:
            handler(src, message)

    def _log(self, src, message):
        self.trace.append(
            (self.sim.now, src, self.id, type(message).__name__, message.value)
        )

    def handle_Ping(self, src, message):
        self._log(src, message)

    def handle_Echo(self, src, message):
        self._log(src, message)
        if message.value < 2 and (src + 1) % self.n == self.id:
            self.network.multicast(
                self.id, range(self.n), Echo(message.value + 1), Echo.wire_size
            )
            # Pong has no handler anywhere: its rows resolve to None.
            self.network.multicast(
                self.id, range(self.n), Pong(message.value), Pong.wire_size
            )


def node_network(store, n=6, routed=lambda node: True, seed=7):
    """(sim, network, nodes, trace) over :class:`Spread` with jitter:
    the store engaged at fanout 2, or the heap-only oracle."""
    sim = Simulator(seed=seed)
    network = Network(sim, Spread(), jitter=0.05)
    if store:
        network.block_fanout = 2
    else:
        heap_only(network)
    trace = []
    nodes = [
        Node(sim, network, node, n, trace, routed=routed(node))
        for node in range(n)
    ]
    return sim, network, nodes, trace


def echo_waves(sim, network, n=6, waves=3):
    """Echo multicasts from every node, one wave per 5 ms."""
    for wave in range(waves):
        for src in range(n):
            sim.schedule(
                wave * 0.005, network.multicast, src, range(n), Echo(0),
                Echo.wire_size,
            )


def run_pair(drive, **kwargs):
    """``drive(sim, network, nodes)`` on the heap-only oracle and on the
    store; returns (trace, stats, recorder digest and count, plane
    counters) per run, the recorder installed before any traffic."""
    runs = []
    for store in (False, True):
        sim, network, nodes, trace = node_network(store, **kwargs)
        recorder = DeliveryOrderRecorder(network)
        drive(sim, network, nodes)
        runs.append((
            trace, snapshot(sim, network), recorder.digest, recorder.count,
            dict(network.stats.plane),
        ))
    return runs


def assert_matches_heap_only(heap, store):
    assert store[:4] == heap[:4]
    assert store[4]["window_rows"] > 0 and not any(heap[4].values())


def test_table_cold_start_matches_heap_only():
    # The first windows carry Echo rows whose class no dispatch cache
    # has seen yet: every cell starts unresolved, the inbox resolves the
    # class, and the answer is written back for the next rows.
    def drive(sim, network, nodes):
        echo_waves(sim, network)
        sim.run()
        table = network._table
        if table is not None:  # the store run: no cell is left unresolved
            assert not any(cell is _UNRESOLVED for cell in table.flat)

    heap, store = run_pair(drive)
    assert_matches_heap_only(heap, store)


def test_class_resolving_to_none_is_counted_and_runs_nothing():
    def drive(sim, network, nodes):
        echo_waves(sim, network)
        sim.run()
        assert all(node.cache.get(Pong, "unseen") is None for node in nodes)

    heap, store = run_pair(drive)
    assert_matches_heap_only(heap, store)
    # Pong rows count as delivered (the recorder saw them) yet no
    # handler logged one.
    assert {row[3] for row in store[0]} == {"Echo"}
    assert store[3] > len(store[0])


def test_destination_with_an_inbox_but_no_route():
    # Nodes 1 and 4 never call register_dispatch: their cells stay
    # unresolved and every row to them takes the inbox.
    def drive(sim, network, nodes):
        echo_waves(sim, network)
        sim.run()

    heap, store = run_pair(drive, routed=lambda node: node not in (1, 4))
    assert_matches_heap_only(heap, store)
    assert {row[2] for row in store[0]} >= {1, 4}


def test_recorder_installed_after_the_table_filled():
    # Traffic first fills the table with the nodes' own handlers; the
    # recorder's register* calls must drop it so that every later row
    # goes through the recorder's wrappers.
    runs = []
    for store in (False, True):
        sim, network, nodes, trace = node_network(store)
        echo_waves(sim, network, waves=6)
        sim.run(until=0.012)
        if store:
            assert network._table is not None
            assert network._fast.count > network._fast.lo
        delivered = network.stats.messages_delivered
        recorder = DeliveryOrderRecorder(network)
        assert network._table is None
        sim.run()
        assert recorder.count == network.stats.messages_delivered - delivered
        runs.append((trace, snapshot(sim, network), recorder.digest, recorder.count))
    heap, store = runs
    assert store == heap


def test_crash_while_rows_are_parked():
    def drive(sim, network, nodes):
        echo_waves(sim, network)
        sim.schedule(0.011, network.set_down, 3, True)
        sim.schedule(0.02, network.set_down, 3, False)
        sim.run()

    heap, store = run_pair(drive)
    assert_matches_heap_only(heap, store)
    assert store[1]["dropped"] > 0
    assert store[4]["fault_fallbacks"] > 0


def test_crash_from_a_handler_inside_a_window():
    # One fanout from node 0, all five cross-node rows in one window:
    # node 4's row arrives first and its handler crashes node 5, whose
    # row later in the same window must be dropped, not handed over.
    def drive(sim, network, nodes):
        node = nodes[4]
        handle = node.handle_Ping

        def crash(src, message):
            handle(src, message)
            network.set_down(5, True)

        node.handle_Ping = crash
        network.multicast(0, range(6), Ping("wave"), Ping.wire_size)
        sim.run()

    heap, store = run_pair(drive)
    assert_matches_heap_only(heap, store)
    assert store[1]["dropped"] == 1
    assert store[4]["windows"] == 1 and store[4]["fault_fallbacks"] > 0


def test_checkpoint_cut_mid_backlog_resumes_identically():
    def build(store):
        sim, network, nodes, trace = node_network(store)
        echo_waves(sim, network, waves=6)
        return sim, network, trace

    def finish(sim, network, trace):
        recorder = DeliveryOrderRecorder(network)
        sim.run()
        return trace, snapshot(sim, network), recorder.digest, recorder.count

    sim, network, trace = build(False)
    sim.run(until=0.012)
    want = finish(sim, network, trace)

    sim, network, trace = build(True)
    sim.run(until=0.012)
    assert network._fast.count > network._fast.lo and network._table is not None
    graph = SimpleNamespace(cluster=SimpleNamespace(sim=sim, network=network))
    graph, trace = checkpoint._deserialize_state(
        checkpoint._serialize_state((graph, trace))
    )
    checkpoint._rebind_deliveries(graph)
    network = graph.cluster.network
    assert network._table is None
    assert set(network._fast.classes) <= {Echo, Pong}
    assert finish(graph.cluster.sim, network, trace) == want
