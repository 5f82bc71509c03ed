"""PBFT's vote rule against the handlers it replaced.

A Prepare or Commit passes the duplicate-sender check, feeds the OptiAware
sensor, and then meets the door: a vote for a decided phase (or a
compacted seq) returns without writing, and the phase's accumulators die
where it is decided.  ``oracles.AccumulatingPbftReplica`` is the replica
before the door -- every vote accumulates and nothing is deleted.  Driven
through the same random vote streams (duplicated, reordered and
post-decision votes; uniform and weighted quorums; with and without a
sensor), both must send one Commit per seq at the same instant, execute
each seq once at the same instant, and show the sensor every vote.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from fakes import FakeDelay
from oracles import AccumulatingPbftReplica
from repro.consensus.messages import Block, Commit, PrePrepare, Prepare
from repro.consensus.pbft import PbftReplica
from repro.crypto.signatures import KeyRegistry
from repro.sim.engine import Simulator
from repro.sim.network import Network

_ME = 1  # a follower: leader 0 proposes every seq


class _SensorLog:
    """Records every ``on_message`` call; raises nothing."""

    def __init__(self):
        self.calls = []

    def on_message(self, seq, src, kind, now):
        self.calls.append((now, seq, src, kind))


def _vote_stream(rng, n, seqs, duplicates):
    """Every seq's PrePrepare and all n Prepares and Commits, shuffled,
    then ``duplicates`` repeats, each somewhere after its original.  Two
    orderings are kept so each seq can decide (in either implementation):
    its PrePrepare precedes its last Prepare, and one of its Commits
    arrives after every PrePrepare and Prepare."""
    events = []
    for seq in range(1, seqs + 1):
        events.append(("PrePrepare", seq, 0))
        for src in range(n):
            events.append(("Prepare", seq, src))
            events.append(("Commit", seq, src))
    rng.shuffle(events)
    for seq in range(1, seqs + 1):
        proposal = events.index(("PrePrepare", seq, 0))
        last_prepare = max(
            k for k, event in enumerate(events) if event[:2] == ("Prepare", seq)
        )
        if proposal > last_prepare:
            events.insert(last_prepare, events.pop(proposal))
        last_commit = max(
            k for k, event in enumerate(events) if event[:2] == ("Commit", seq)
        )
        events.append(events.pop(last_commit))
    for _ in range(duplicates):
        k = rng.randrange(len(events))
        events.insert(rng.randint(k + 1, len(events)), events[k])
    return events


def _drive(cls, n, mode, with_sensor, stream):
    f = (n - 1) // 3
    sim = Simulator(seed=0)
    network = Network(sim, FakeDelay(lambda a, b: 0.01))
    replica = cls(_ME, n, f, sim, network, KeyRegistry(n, seed=0), mode=mode)
    assert not replica.is_leader
    replica.running = True
    sent = []
    replica.broadcast = lambda message: sent.append(
        (sim.now, type(message).__name__, message.seq)
    )
    sensor = None
    if with_sensor:
        sensor = replica._sensor = _SensorLog()
        replica._arm_suspicion_round = lambda sensor, message: None
    blocks = {}
    for k, (kind, seq, src) in enumerate(stream):
        sim.now = 0.001 * (k + 1)
        block = blocks.setdefault(seq, Block(height=seq, proposer=0, parent=""))
        if kind == "PrePrepare":
            replica.handle_PrePrepare(src, PrePrepare(0, seq, block, 0.0))
        elif kind == "Prepare":
            replica.handle_Prepare(src, Prepare(0, seq, block.hash, src))
        else:
            replica.handle_Commit(src, Commit(0, seq, block.hash, src))
    commits = [(time, seq) for time, kind, seq in sent if kind == "Commit"]
    executions = [(event.commit_time, event.height) for event in replica.metrics.commits]
    return replica, commits, executions, sensor


def _first_sightings(calls):
    seen = set()
    first = []
    for call in calls:
        if call[1:] not in seen:
            seen.add(call[1:])
            first.append(call)
    return first


@settings(max_examples=80, deadline=None)
@given(
    n=st.sampled_from([4, 7, 31]),
    mode=st.sampled_from(["static", "aware"]),
    with_sensor=st.booleans(),
    seqs=st.integers(min_value=1, max_value=3),
    duplicates=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_vote_rule_matches_the_accumulating_reference(
    n, mode, with_sensor, seqs, duplicates, seed
):
    stream = _vote_stream(random.Random(seed), n, seqs, duplicates)
    _, ref_commits, ref_executions, ref_sensor = _drive(
        AccumulatingPbftReplica, n, mode, with_sensor, stream
    )
    replica, commits, executions, sensor = _drive(
        PbftReplica, n, mode, with_sensor, stream
    )
    every_seq = list(range(1, seqs + 1))
    assert commits == ref_commits
    assert sorted(seq for _, seq in commits) == every_seq
    assert executions == ref_executions
    assert sorted(seq for _, seq in executions) == every_seq
    # Decided phases hold no accumulator.
    assert not replica.prepare_weight.keys() & replica.sent_commit
    assert not replica.commit_weight.keys() & replica.executed
    assert replica.prepare_senders.keys() == replica.prepare_weight.keys()
    assert replica.commit_senders.keys() == replica.commit_weight.keys()
    if with_sensor:
        # Every distinct vote reached the sensor, at its first arrival;
        # past the door a repeat may reach it again.
        assert _first_sightings(sensor.calls) == ref_sensor.calls
        votes = {(seq, src, kind) for kind, seq, src in stream}
        assert len(ref_sensor.calls) == len(votes)
