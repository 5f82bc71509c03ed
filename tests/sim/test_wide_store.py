"""The wide-row store on the exact plane: windows, merge, put-back.

A multicast whose fanout reaches ``Network.block_fanout`` -- over a
delay provider that advertises a positive ``delay_floor`` -- parks its
cross-node rows in the store (``Network._fast``) instead of pushing one
heap entry each, and the drain delivers them in delay-floor windows
merged against the deliveries pending at the head of the heap.  The
contract: delivery times, global order, seq allocation, RNG draws and
statistics are bit-identical to a heap-only run (``oracles.heap_only``).
These tests pin the store machinery specifically by lowering
``block_fanout`` so small fanouts engage it.
"""

import pickle

import pytest

from fakes import FakeDelay
from oracles import heap_only
from repro.sim import network as network_mod
from repro.sim.engine import Simulator
from repro.sim.network import Network

pytestmark = pytest.mark.usefixtures("small_fanout")


@pytest.fixture(params=["sparse", "dense"])
def small_fanout(request, monkeypatch):
    """Engage the store at fanout 4 so n=8 traffic exercises it -- once
    as the sparse store such traffic makes (one barrier-wide window,
    trimmed when a handler parks rows under it), once with the sparse
    rule off, so the same rows go through delay-floor windows.  Answers
    which, for the tests whose counters depend on it."""
    monkeypatch.setattr(Network, "block_fanout", 4)
    if request.param == "dense":
        monkeypatch.setattr(network_mod, "_SPARSE_ROWS", 0)
    return request.param


class Ping:
    wire_size = 10

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"Ping({self.value})"


class Pong(Ping):
    wire_size = 7


class Spread(FakeDelay):
    """Distinct per-pair delays (so store rows interleave with
    everything) and the floor the windowed drain needs.  Module-level,
    so networks using it pickle."""

    def __init__(self, step=0.003):
        self.step = step

    def delay(self, a, b):
        return 0.0 if a == b else 0.001 + ((a * 7 + b * 3) % 11) * self.step

    def delay_floor(self):
        return 0.001


class Flat(FakeDelay):
    """One delay for every pair: whole fanouts tie on arrival time."""

    def __init__(self, value):
        self.value = value

    def delay(self, a, b):
        return 0.0 if a == b else self.value

    def delay_floor(self):
        return self.value


def _bare(a, b):
    # Spread's delays without its floor: the provider the store must refuse.
    return 0.0 if a == b else 0.001 + ((a * 7 + b * 3) % 11) * 0.003


def run_wide_traffic(
    store, n=8, jitter=0.0, seed=1, delay=None, on_ping=None, rounds=3,
    drive=Simulator.run,
):
    """All-to-all wide multicasts, through the store or -- the oracle --
    the heap alone; ``on_ping(sim, network, dst, src, message)`` adds
    per-test reactions and ``drive(sim)`` runs the simulation to its
    end.  Returns the delivery trace, the wire-visible statistics and
    the network."""
    sim = Simulator(seed=seed)
    network = Network(sim, delay or Spread(), jitter=jitter)
    if not store:
        heap_only(network)
    trace = []

    def handler(dst):
        def on_message(src, message):
            trace.append((sim.now, src, dst, repr(message)))
            if on_ping is not None and type(message) is Ping:
                on_ping(sim, network, dst, src, message)

        return on_message

    for node in range(n):
        network.register(node, handler(node))
    for round_index in range(rounds):
        for src in range(n):
            # Concurrent wide multicasts: rows of different fanouts
            # interleave row-by-row (the PBFT all-to-all shape).
            sim.schedule(
                round_index * 0.01,
                network.multicast,
                src,
                range(n),
                Ping((round_index, src)),
                Ping.wire_size,
            )
    drive(sim)
    stats = network.stats
    return trace, {
        "now": sim.now,
        "seq": sim._seq,
        "rng": sim.rng.getstate(),
        "delivered": stats.messages_delivered,
        "dropped": stats.messages_dropped,
        "bytes": stats.bytes_sent,
    }, network


def assert_store_matches_heap(**kwargs):
    trace_heap, stats_heap, _ = run_wide_traffic(False, **kwargs)
    trace_store, stats_store, network = run_wide_traffic(True, **kwargs)
    assert trace_store == trace_heap
    assert stats_store == stats_heap
    return network.stats.plane, network


# What node 0 does on every Ping, for the tests that need something to
# land inside an open window (``on_ping`` reactions).
def _timer(sim, network, dst, src, message):
    if dst == 0:  # a quarter-floor ahead
        sim.schedule(0.00025, lambda: None)


def _self_copy(sim, network, dst, src, message):
    if dst == 0:  # zero delay: lands at ``now``
        network.send(0, 0, Pong(message.value), Pong.wire_size)


def _unicast_reply(sim, network, dst, src, message):
    if dst == 0:  # fanout 1: waits in the heap, the head when it lands
        network.send(0, src, Pong(message.value), Pong.wire_size)


# ----------------------------------------------------------------------
# Bit-identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("jitter", [0.0, 0.05])
def test_store_trace_matches_object_plane(jitter):
    counters, _ = assert_store_matches_heap(jitter=jitter)
    # 8 senders x 7 cross-node rows x 3 rounds went through windows.  The
    # 24 zero-delay self copies were heap entries sent by timers at the
    # instant they land, so the engine popped them before any cursor:
    # no drain had one to merge.
    assert counters["window_rows"] == 168
    assert counters["merged_rows"] == 0
    assert counters["windows"] > 0


def test_reactive_sends_interleave_with_store_rows():
    # Sends fired from inside a window wait in the heap (fanout 1) and
    # must still interleave correctly.
    counters, _ = assert_store_matches_heap(on_ping=_unicast_reply)
    assert counters["merged_rows"] > 0


def test_store_engages_at_the_threshold():
    sim = Simulator(seed=1)
    network = Network(sim, Spread())
    for node in range(6):
        network.register(node, lambda src, msg: None)
    network.multicast(0, range(6), Ping("wide"), Ping.wire_size)
    # Five cross-node rows parked behind one cursor, the self copy a
    # heap delivery.
    assert network._fast.count == 5
    assert len(sim._queue) == 2
    assert any(
        entry[3] is network._deliver_bound and entry[4][:2] == (0, 0)
        for entry in sim._queue
    )
    network.multicast(1, range(3), Ping("narrow"), Ping.wire_size)
    network.send(1, 2, Ping("unicast"), Ping.wire_size)
    assert network._fast.count == 5
    assert len(sim._queue) == 6
    sim.run()
    assert network._fast.count == 0 and not network._fast.pool
    assert not sim._queue
    assert network.stats.messages_delivered == 10


def test_floorless_provider_stays_on_tuples():
    # A provider with a 0.0 floor promises no lower bound on its delays,
    # so a window could never be wider than one instant: wide multicasts
    # stay heap entries (the tuples of the name) and nothing parks or
    # merges.
    counters, network = assert_store_matches_heap(
        delay=FakeDelay(_bare), jitter=0.05
    )
    assert network._delay_floor == 0.0
    assert not any(counters.values())
    # One engine event per delivery, plus the 24 timers that sent them.
    assert network.stats.messages_delivered == 192
    assert network.sim.events_processed == 192 + 24


def test_arrival_ties_resolve_by_seq():
    # Every row of a fanout -- and of the next sender's fanout -- lands
    # at one timestamp: order is decided purely by seq, which the window
    # sort must reproduce.
    counters, _ = assert_store_matches_heap(delay=Flat(0.01), rounds=1)
    assert counters["window_rows"] == 56


# ----------------------------------------------------------------------
# Faults and horizons
# ----------------------------------------------------------------------
def test_mid_flight_fault_falls_back_per_row():
    def run(store):
        sim = Simulator(seed=1)
        network = Network(sim, Flat(1.0))
        if not store:
            heap_only(network)
        trace = []
        for node in range(6):
            network.register(
                node,
                lambda src, msg, node=node: trace.append((node, msg.value)),
            )
        network.multicast(0, range(6), Ping(7), Ping.wire_size)
        sim.schedule(0.5, network.set_down, 2, True)
        sim.run()
        return trace, network.stats

    trace_object, stats_object = run(False)
    trace_store, stats_store = run(True)
    assert trace_store == trace_object
    assert stats_store.messages_dropped == stats_object.messages_dropped == 1
    # The five parked rows went through _deliver_bound's checks one by
    # one; the self copy was delivered before the fault.
    assert stats_store.plane["fault_fallbacks"] == 5


def test_horizon_slices_a_window_and_resumes():
    def run(store):
        sim = Simulator(seed=1)
        network = Network(sim, Spread(0.1))
        if not store:
            heap_only(network)
        trace = []
        for node in range(5):
            network.register(
                node,
                lambda src, msg, node=node: trace.append(
                    (sim.now, src, node, msg.value)
                ),
            )
        network.multicast(0, range(5), Ping(1), Ping.wire_size)
        sim.run(until=0.5)
        first = list(trace)
        sim.run(until=10.0)
        return first, trace

    first_o, full_o = run(False)
    first_c, full_c = run(True)
    assert 1 < len(first_o) < len(full_o)
    assert first_c == first_o
    assert full_c == full_o


def _every_event_its_own_run(sim):
    while sim.pending:
        sim.run(max_events=1)


def _slices_ending_inside_windows(sim):
    # 0.7 ms steps against a 1 ms floor: most slices end inside a window.
    until = 0.0
    while sim.pending:
        until += 0.0007
        sim.run(until=until)


@pytest.mark.parametrize(
    "drive", [_every_event_its_own_run, _slices_ending_inside_windows]
)
def test_sliced_runs_resume_to_the_same_trace(drive):
    # A budget stop falls between two heap pops, never inside a drain;
    # a horizon stop falls inside one, which puts the rest of its window
    # back.  Either way the next run() picks up where this one stopped.
    counters, _ = assert_store_matches_heap(
        drive=drive, on_ping=_unicast_reply, jitter=0.05
    )
    assert counters["window_rows"] == 168 and counters["merged_rows"] > 0


# ----------------------------------------------------------------------
# Window edges: what lands inside an open window, put-back, tail folds,
# seq rebases
# ----------------------------------------------------------------------
@pytest.mark.parametrize("landing", [_timer, _self_copy, _unicast_reply])
def test_what_lands_inside_an_open_window(small_fanout, landing):
    # Node 0 answers every Ping with something that lands inside a
    # window: a timer a quarter-floor ahead, a zero-delay self copy, or
    # a unicast that is the heap's head when a later window opens.  The
    # timer bars the window (rows behind it go back); the deliveries
    # merge into it and bar nothing.
    counters, _ = assert_store_matches_heap(on_ping=landing, jitter=0.05)
    assert (counters["merged_rows"] > 0) == (landing is not _timer)
    if small_fanout == "dense":
        # (A sparse window is also trimmed, by put-back, the first time
        # a handler parks rows under it.)
        assert (counters["put_backs"] > 0) == (landing is _timer)


def test_rows_parked_at_the_window_end_tie_with_heap_heads():
    # One flat delay equal to the floor: what node 0 sends from inside
    # the window [d, 2d) -- a wide fanout (parked) and then a unicast
    # (heap) -- lands exactly at the window's end, 2d, the parked rows
    # with the smaller seqs.  The heap head is below the cap (2d, inf)
    # when the window runs out; the rows parked since the cut must be
    # cut before it is merged.
    def react(sim, network, dst, src, message):
        if dst == 0:
            network.multicast(0, range(8), Pong(message.value), Pong.wire_size)
            network.send(0, src, Pong(message.value), Pong.wire_size)

    counters, _ = assert_store_matches_heap(
        delay=Flat(0.01), rounds=1, on_ping=react
    )
    assert counters["merged_rows"] >= 7


def test_timer_inside_the_window_puts_rows_back():
    # Node 0 answers every Ping with a timer a quarter-floor ahead: it
    # lands inside the window being delivered and becomes the heap head,
    # so the rows behind it must leave the window again.
    fired = []

    def arm(sim, network, dst, src, message):
        if dst == 0:
            sim.schedule(0.00025, fired.append, (sim.now, message.value))

    counters, _ = assert_store_matches_heap(on_ping=arm, jitter=0.05)
    assert counters["put_backs"] > 0
    # Both runs appended to ``fired``: the timers fired at equal times.
    assert fired[: len(fired) // 2] == fired[len(fired) // 2 :]


def test_tail_folds_mid_drain():
    # 96 fanouts of 95 rows overflow the append tail (> 8192 rows) on the
    # first cut; every node then answers the Pings of nodes 0-2 with a
    # wide multicast each, refilling the tail while the drain is running
    # faster than the shrinking prefix can excuse.
    def more_waves(sim, network, dst, src, message):
        if src < 3:
            network.multicast(dst, range(96), Pong(dst), Pong.wire_size)

    counters, _ = assert_store_matches_heap(n=96, rounds=1, on_ping=more_waves)
    assert counters["tail_folds"] >= 2
    assert counters["window_rows"] == 4 * 96 * 95


def test_seq_rebase_with_rows_pending(monkeypatch):
    # A relative-seq ceiling of 64 forces a rebase on nearly every
    # multicast, with rows pending and -- thanks to the timers -- with
    # cut rows waiting to be put back below the new base.
    monkeypatch.setattr(network_mod, "_FAST_SEQ_LIMIT", 64)

    def arm(sim, network, dst, src, message):
        if dst == 0:
            sim.schedule(0.00025, lambda: None)

    counters, network = assert_store_matches_heap(on_ping=arm, jitter=0.05)
    assert counters["put_backs"] > 0
    assert network._fast.seq_base > 64


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------
def test_store_capacity_tracks_the_live_backlog(monkeypatch):
    # A 512-way all-to-all, twice over: the second round's appends meet
    # a half-drained store, whose dead front must be reclaimed before the
    # columns are allowed to grow.
    monkeypatch.setattr(Network, "block_fanout", 256)
    sim = Simulator(seed=1)
    network = Network(sim, Spread(0.01))
    store = network._fast
    peak = 0

    def on_message(src, message):
        nonlocal peak
        peak = max(peak, store.count - store.lo)

    for node in range(512):
        network.register(node, on_message)
    for start in (0.0, 0.05):
        for src in range(512):
            sim.schedule(
                start, network.multicast, src, range(512), Ping(src),
                Ping.wire_size,
            )
    sim.run()
    assert network.stats.messages_delivered == 2 * 512 * 512
    assert peak >= 512 * 511
    assert len(store.times) <= 1.5 * peak
    # ~20 bytes a row: the src lives once per pool slot.
    assert sum(
        getattr(store, name).itemsize for name in network_mod._FAST_COLUMNS
    ) == 20


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------
class PicklableEndpoint:
    def __init__(self, sim):
        self.sim = sim
        self.received = []

    def __call__(self, src, message):
        self.received.append((self.sim.now, src, message.value))


def test_network_pickles_with_wide_rows_in_flight():
    def build():
        sim = Simulator(seed=4)
        network = Network(sim, Spread(0.1), jitter=0.1)
        endpoints = [PicklableEndpoint(sim) for _ in range(5)]
        for node, endpoint in enumerate(endpoints):
            network.register(node, endpoint)
        network.multicast(0, range(5), Ping("m"), Ping.wire_size)
        network.multicast(1, range(5), Ping("n"), Ping.wire_size)
        return sim, network, endpoints

    sim, network, endpoints = build()
    sim.run()
    want = [endpoint.received for endpoint in endpoints]

    sim, network, endpoints = build()
    sim.run(until=0.3)
    store = network._fast
    assert 0 < store.count - store.lo < 8  # cut mid-backlog
    sim2, network2, endpoints2 = pickle.loads(
        pickle.dumps((sim, network, endpoints))
    )
    sim2.run()
    assert [endpoint.received for endpoint in endpoints2] == want
    assert network2.stats.plane["window_rows"] == 8
