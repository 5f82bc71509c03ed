"""Faulted sends and fan-outs == the generic checked loop, entry for entry.

``send`` keeps one inlined heap-push / stats path, and every fan-out --
``multicast`` in any fault state, a client's request broadcast through
``fan_out`` -- runs one hoisted per-destination loop.  The oracle below
is the generic loop those replaced -- reachability checks, provider
call, jitter, interceptors, one stats bump, ``sim.post``, one
destination at a time -- and both must leave the same ``(time, seq)``
heap entries, jitter stream and ``NetworkStats``, with interceptors
only, with a node down or a partition active (installed before the
sends or flipped between them), over matrix, row-only and scalar
providers, and from client ids (>= 1000) fanning out to the replicas.
"""

import random
from functools import partial

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.network import Network
from repro.workloads.base import ClientSiteRouter

N = 9
CLIENTS = (1000, 1001)


class Ping:
    def __init__(self, tag):
        self.tag = tag


class Pong(Ping):
    pass


def delay_of(a, b):
    return 0.001 * (1 + (a * 7 + b * 3) % 11)


delay_of.rows = [[delay_of(a, b) for b in range(N)] for a in range(N)]


class RowOnly:
    """Router-shaped provider: scalar calls and ``row()``, no ``rows``."""

    def __call__(self, a, b):
        return delay_of(a, b)

    def row(self, src):
        return [delay_of(src, b) for b in range(N)]


def placed_router():
    router = ClientSiteRouter(RowOnly(), n=N, default_site=2)
    router.place(CLIENTS[1], 6)
    return router


PROVIDERS = {
    "rows": lambda: delay_of,
    "scalar": lambda: (lambda a, b: delay_of(a, b)),
    "row-only": RowOnly,
    "router": placed_router,
}


def generic_send(network, src, dst, message, size=0):
    if src in network._down or dst in network._down or network._partitioned(src, dst):
        network.stats.messages_dropped += 1
        return
    delay = 0.0 if src == dst else network.one_way_delay(src, dst)
    if network.jitter > 0.0:
        delay *= 1.0 + network._jitter_span * network._jitter_random()
    for interceptor in network._interceptors:
        result = interceptor(src, dst, message, delay)
        if result is None:
            network.stats.messages_dropped += 1
            return
        message, delay = result
    network.stats.record_multicast(message, size, 1)
    network.sim.post(delay, network._deliver_bound, (src, dst, message))


def generic_fan_out(network, src, dsts, message, size=0):
    for dst in dsts:
        generic_send(network, src, dst, message, size)


def generic_multicast(network, src, dsts, message, size=0):
    network.stats.messages_multicast += 1
    generic_fan_out(network, src, dsts, message, size)


class Stretch:
    """Delays one sender's messages; counts calls like the real attacks."""

    def __init__(self, attacker):
        self.attacker = attacker
        self.calls = 0

    def __call__(self, src, dst, message, delay):
        self.calls += 1
        if src != self.attacker:
            return message, delay
        return message, delay + 0.05


def drop_to_three(src, dst, message, delay):
    return None if dst == 3 else (message, delay)


def rewrite_even(src, dst, message, delay):
    # A rewritten class lands in the per-class stats in first-send order.
    return (Pong(message.tag), delay) if dst % 2 == 0 else (message, delay)


def _ignore(*args):
    pass


class Poster:
    """Posts an event of its own on every third call, so the loop must
    hand it the live seq and take the advanced one back."""

    def __init__(self, sim):
        self.sim = sim
        self.calls = 0

    def __call__(self, src, dst, message, delay):
        self.calls += 1
        if self.calls % 3 == 0:
            self.sim.post(0.5, _ignore, (src, dst, Ping(-self.calls)))
        return message, delay


def down(node, is_down=True):
    return lambda network: network.set_down(node, is_down)


def split(*groups):
    return lambda network: network.partition(groups)


def heal(network):
    network.heal()


def _traffic(rng, clients):
    """60 steps of sends and multicasts; with ``clients``, client ids
    also fan a request out to every replica and receive replies."""
    script = []
    for step in range(60):
        if clients and rng.random() < 0.3:
            client = rng.choice(CLIENTS)
            if rng.random() < 0.5:
                script.append(("fan_out", client, range(N), Ping(step), 120))
            else:
                script.append(("send", rng.randrange(N), client, Ping(step), 40))
            continue
        src = rng.randrange(N)
        if rng.random() < 0.5:
            script.append(("send", src, rng.randrange(N), Ping(step), rng.randrange(200)))
        else:
            dsts = rng.sample(range(N), rng.randrange(1, N))
            script.append(("multicast", src, dsts, Ping(step), rng.randrange(200)))
    return script


def _snapshot(network, interceptors):
    sim = network.sim
    stats = network.stats
    return {
        "heap": sorted(
            (time, seq, args[0], args[1], type(args[2]).__name__, args[2].tag)
            for time, seq, _handle, _callback, args in sim._queue
        ),
        "seq": sim._seq,
        "max_queue_depth": sim.max_queue_depth,
        "jitter_rng": network._jitter_rng.getstate(),
        "sent": stats.messages_sent,
        "dropped": stats.messages_dropped,
        "multicast": stats.messages_multicast,
        "bytes": stats.bytes_sent,
        "per_type": list(stats.per_type_bytes.items()),
        "calls": [getattr(i, "calls", None) for i in interceptors],
    }


def _run(fast, provider, jitter, install_at, flips=None):
    """Play the script; ``install_at`` maps step -> interceptor factory
    (called with the simulator), ``flips`` step -> topology change."""
    sim = Simulator(seed=4)
    network = Network(sim, PROVIDERS[provider](), jitter=jitter)
    if fast:
        paths = {"send": network.send, "multicast": network.multicast,
                 "fan_out": network.fan_out}
    else:
        paths = {"send": partial(generic_send, network),
                 "multicast": partial(generic_multicast, network),
                 "fan_out": partial(generic_fan_out, network)}
    flips = flips or {}
    interceptors = []
    # The matrix provider only covers replica ids.
    for step, action in enumerate(_traffic(random.Random(11), provider != "rows")):
        if step in flips:
            flips[step](network)
        if step in install_at:
            interceptors.append(install_at[step](sim))
            network.add_interceptor(interceptors[-1])
        sim.now = 0.01 * step
        paths[action[0]](*action[1:])
    return _snapshot(network, interceptors)


@pytest.mark.parametrize("jitter", [0.0, 0.02])
@pytest.mark.parametrize("provider", ["rows", "scalar", "row-only", "router"])
@pytest.mark.parametrize(
    "install_at",
    [
        {0: lambda sim: Stretch(2)},
        {0: lambda sim: Stretch(2), 1: lambda sim: drop_to_three},
        {0: lambda sim: rewrite_even, 2: lambda sim: Stretch(5)},
        # Installed mid-run: the sends before it take the pristine path.
        {25: lambda sim: Stretch(2), 40: lambda sim: drop_to_three},
        {0: Poster, 10: lambda sim: drop_to_three},
    ],
    ids=["delay", "delay+drop", "rewrite+delay", "mid-run", "posting"],
)
def test_interceptor_only_paths_match_generic_loop(provider, jitter, install_at):
    assert _run(True, provider, jitter, install_at) == _run(
        False, provider, jitter, install_at
    )


@pytest.mark.parametrize("jitter", [0.0, 0.02])
@pytest.mark.parametrize("provider", ["rows", "scalar", "row-only", "router"])
@pytest.mark.parametrize(
    "install_at",
    [
        {},
        {0: lambda sim: Stretch(2), 1: lambda sim: drop_to_three},
        {5: lambda sim: rewrite_even, 30: Poster},
    ],
    ids=["no-interceptor", "delay+drop", "rewrite+posting"],
)
@pytest.mark.parametrize(
    "flips",
    [
        {0: down(4)},
        # Nodes 7, 8 and client 1001 stay ungrouped; client 1000 is grouped.
        {0: split([0, 1, 2, 3, 1000], [4, 5, 6])},
        # Flipped between sends: down, partition on top, revive, heal,
        # then the sender side goes down.
        {10: down(4), 20: split([0, 1, 2], [3, 4, 5, 1001]), 30: down(4, False),
         40: heal, 50: down(0)},
    ],
    ids=["down", "partition", "flipped"],
)
def test_faulted_paths_match_generic_loop(provider, jitter, install_at, flips):
    assert _run(True, provider, jitter, install_at, flips) == _run(
        False, provider, jitter, install_at, flips
    )


def test_interceptor_only_network_skips_reachability_checks():
    sim = Simulator(seed=1)
    network = Network(sim, delay_of)
    network.add_interceptor(Stretch(0))
    assert network._links_clear and not network._pristine
    network.set_down(4)
    assert not network._links_clear
    network.set_down(4, False)
    network.partition([[0, 1], [2, 3]])
    assert not network._links_clear
    network.heal()
    assert network._links_clear and not network._pristine


def test_down_node_with_interceptor_still_drops():
    sim = Simulator(seed=1)
    network = Network(sim, delay_of)
    stretch = Stretch(0)
    network.add_interceptor(stretch)
    network.set_down(4)
    network.multicast(0, range(N), Ping(0))
    assert network.stats.messages_dropped == 1
    assert network.stats.messages_sent == N - 1
    assert stretch.calls == N - 1  # a dropped send never reaches interceptors


@pytest.mark.parametrize("bad", [-1.0, float("nan")])
def test_interceptor_cannot_post_into_the_past(bad):
    sim = Simulator(seed=1)
    network = Network(sim, delay_of)
    network.add_interceptor(lambda src, dst, message, delay: (message, bad))
    with pytest.raises(SimulationError):
        network.send(0, 1, Ping(0))
    with pytest.raises(SimulationError):
        network.multicast(0, [1, 2], Ping(0))
