"""Tests for the simulated network."""

from fakes import FakeDelay
from repro.sim.engine import Simulator
from repro.sim.network import Network


def make_network(delay=0.01, jitter=0.0):
    sim = Simulator(seed=1)
    network = Network(sim, FakeDelay(lambda a, b: delay), jitter=jitter)
    return sim, network


def test_message_delivered_after_link_delay():
    sim, network = make_network(delay=0.05)
    inbox = []
    network.register(1, lambda src, msg: inbox.append((sim.now, src, msg)))
    network.send(0, 1, "hello")
    sim.run()
    assert inbox == [(0.05, 0, "hello")]


def test_self_delivery_is_instant():
    sim, network = make_network(delay=0.05)
    inbox = []
    network.register(0, lambda src, msg: inbox.append(sim.now))
    network.send(0, 0, "self")
    sim.run()
    assert inbox == [0.0]


def test_multicast_reaches_all():
    sim, network = make_network()
    inboxes = {i: [] for i in range(3)}
    for i in range(3):
        network.register(i, lambda src, msg, i=i: inboxes[i].append(msg))
    network.multicast(0, range(3), "m")
    sim.run()
    assert all(inboxes[i] == ["m"] for i in range(3))


def test_down_node_drops_messages_both_ways():
    sim, network = make_network()
    inbox = []
    network.register(1, lambda src, msg: inbox.append(msg))
    network.set_down(1)
    network.send(0, 1, "lost")
    sim.run()
    assert inbox == []
    assert network.stats.messages_dropped == 1
    network.set_down(1, False)
    network.send(0, 1, "found")
    sim.run()
    assert inbox == ["found"]


def test_crash_during_flight_drops_delivery():
    sim, network = make_network(delay=1.0)
    inbox = []
    network.register(1, lambda src, msg: inbox.append(msg))
    network.send(0, 1, "in-flight")
    sim.schedule(0.5, network.set_down, 1, True)
    sim.run()
    assert inbox == []


def test_interceptor_can_drop_and_delay():
    sim, network = make_network(delay=0.01)
    inbox = []
    network.register(1, lambda src, msg: inbox.append((sim.now, msg)))

    def interceptor(src, dst, message, delay):
        if message == "drop":
            return None
        return message, delay + 1.0

    network.add_interceptor(interceptor)
    network.send(0, 1, "drop")
    network.send(0, 1, "slow")
    sim.run()
    assert inbox == [(1.01, "slow")]


def test_jitter_stretches_delay_within_bound():
    sim, network = make_network(delay=0.1, jitter=0.1)
    times = []
    network.register(1, lambda src, msg: times.append(sim.now))
    for _ in range(50):
        network.send(0, 1, "x")
    sim.run()
    assert all(0.1 <= t <= 0.11 + 1e-9 for t in times)


def test_multicast_counts_batches_and_per_destination_sends():
    sim, network = make_network()
    for i in range(4):
        network.register(i, lambda src, msg: None)
    network.multicast(0, range(4), "m", size=10)
    network.multicast(0, (), "empty", size=10)
    sim.run()
    assert network.stats.messages_multicast == 2
    assert network.stats.messages_sent == 4  # one per destination
    assert network.stats.bytes_sent == 40
    assert network.stats.messages_delivered == 4


def test_multicast_batched_path_equals_send_loop():
    """The pristine multicast batch must deliver at the same times, in the
    same order, with the same jitter draws as a loop of send() calls."""
    def run(batched):
        sim = Simulator(seed=5)
        network = Network(sim, FakeDelay(lambda a, b: 0.01 * (a + b + 1)), jitter=0.05)
        log = []
        for i in range(5):
            network.register(i, lambda src, msg, i=i: log.append((sim.now, i, msg)))
        if batched:
            network.multicast(0, range(5), "m")
        else:
            for dst in range(5):
                network.send(0, dst, "m")
        sim.run()
        return log

    assert run(batched=True) == run(batched=False)


def test_fast_path_equivalent_to_interceptor_disabled_path():
    """A no-op interceptor forces the checked (slow) path; delivery times
    must be identical to the pristine fast path under the same seed."""
    def run(with_noop):
        sim = Simulator(seed=9)
        network = Network(sim, FakeDelay(lambda a, b: 0.02), jitter=0.1)
        if with_noop:
            network.add_interceptor(lambda src, dst, msg, delay: (msg, delay))
        log = []
        network.register(1, lambda src, msg: log.append((sim.now, msg)))
        for k in range(20):
            network.send(0, 1, f"m{k}")
        network.multicast(0, [1, 1, 1], "mc")
        sim.run()
        return log

    assert run(with_noop=True) == run(with_noop=False)


def test_fast_path_reengages_after_faults_clear():
    sim, network = make_network(delay=0.01)
    inbox = []
    network.register(1, lambda src, msg: inbox.append(msg))
    network.set_down(1)
    network.send(0, 1, "lost")
    network.set_down(1, False)
    epoch = network.partition([(0,), (1,)])
    network.send(0, 1, "cut")
    network.heal(epoch)
    network.send(0, 1, "fast")
    sim.run()
    assert inbox == ["fast"]
    assert network.stats.messages_dropped == 2


def test_stats_count_bytes_per_type():
    sim, network = make_network()
    network.register(1, lambda src, msg: None)
    network.send(0, 1, "abc", size=10)
    network.send(0, 1, "def", size=5)
    sim.run()
    assert network.stats.bytes_sent == 15
    assert network.stats.per_type_bytes["str"] == 15
    assert network.stats.messages_delivered == 2


def test_stats_exclude_messages_dropped_at_send():
    """A message dropped before it reaches the wire (down node or
    interceptor) must not inflate the Fig. 13 overhead accounting."""
    sim, network = make_network()
    network.register(1, lambda src, msg: None)
    network.set_down(1)
    network.send(0, 1, "to-down-node", size=100)
    network.set_down(1, False)
    network.add_interceptor(lambda src, dst, msg, d: None if msg == "drop" else (msg, d))
    network.send(0, 1, "drop", size=50)
    network.send(0, 1, "keep", size=7)
    sim.run()
    assert network.stats.messages_sent == 1
    assert network.stats.bytes_sent == 7
    assert network.stats.per_type_bytes == {"str": 7}
    assert network.stats.messages_dropped == 2
    assert network.stats.messages_delivered == 1


def test_interceptors_run_in_installation_order():
    def double(src, dst, message, delay):
        return message, delay * 2.0

    def drop_if_slow(src, dst, message, delay):
        # Sees the delay *after* `double`: proof of chain ordering.
        return None if delay > 0.015 else (message, delay)

    def deliveries(*interceptors):
        sim, network = make_network(delay=0.01)
        inbox = []
        network.register(1, lambda src, msg: inbox.append((sim.now, msg)))
        for interceptor in interceptors:
            network.add_interceptor(interceptor)
        network.send(0, 1, "x")
        sim.run()
        return inbox, network.stats.messages_dropped

    assert deliveries(double, drop_if_slow) == ([], 1)
    assert deliveries(drop_if_slow) == ([(0.01, "x")], 0)


def test_partition_blocks_cross_group_traffic_both_directions():
    sim, network = make_network(delay=0.01)
    inboxes = {i: [] for i in range(4)}
    for i in range(4):
        network.register(i, lambda src, msg, i=i: inboxes[i].append(msg))
    network.partition([(0, 1), (2, 3)])
    network.send(0, 1, "intra")
    network.send(0, 2, "cross")
    network.send(3, 1, "cross-back")
    sim.run()
    assert inboxes[1] == ["intra"]
    assert inboxes[2] == []
    assert network.stats.messages_dropped == 2


def test_partition_drops_in_flight_messages_and_heals():
    sim, network = make_network(delay=1.0)
    inbox = []
    network.register(1, lambda src, msg: inbox.append(msg))
    network.send(0, 1, "in-flight")
    sim.schedule(0.5, network.partition, [(0,), (1,)])
    sim.run()
    assert inbox == []
    network.heal()
    network.send(0, 1, "after-heal")
    sim.run()
    assert inbox == ["after-heal"]


def test_partition_leaves_unlisted_nodes_connected():
    """Nodes absent from every group (e.g. clients) keep talking to all."""
    sim, network = make_network(delay=0.01)
    inboxes = {i: [] for i in range(3)}
    for i in range(3):
        network.register(i, lambda src, msg, i=i: inboxes[i].append(msg))
    network.partition([(0,), (1,)])
    network.send(2, 0, "to-a")
    network.send(2, 1, "to-b")
    sim.run()
    assert inboxes[0] == ["to-a"]
    assert inboxes[1] == ["to-b"]


def test_stale_heal_epoch_does_not_wipe_newer_partition():
    """A heal scheduled for an old partition must not clear a newer one."""
    sim, network = make_network(delay=0.01)
    inbox = []
    network.register(1, lambda src, msg: inbox.append(msg))
    first = network.partition([(0,), (1,)])
    second = network.partition([(0, 2), (1,)])
    network.heal(first)  # stale: superseded by `second`
    network.send(0, 1, "still-cut")
    sim.run()
    assert inbox == []
    network.heal(second)
    network.send(0, 1, "healed")
    sim.run()
    assert inbox == ["healed"]


def test_partition_rejects_overlapping_groups_and_replaces_old():
    import pytest

    sim, network = make_network(delay=0.01)
    inbox = []
    network.register(1, lambda src, msg: inbox.append(msg))
    with pytest.raises(ValueError, match="two partition groups"):
        network.partition([(0, 1), (1, 2)])
    network.partition([(0,), (1,)])
    network.partition([(0, 1), (2,)])  # replaces: 0 and 1 reunited
    network.send(0, 1, "reunited")
    sim.run()
    assert inbox == ["reunited"]
