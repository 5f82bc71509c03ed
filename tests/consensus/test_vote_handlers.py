"""Per-row vote handlers at the quorum edges.

The message plane delivers votes one row at a time through the
engines' ``handle_Vote`` / ``handle_Prepare`` / ``handle_Commit``.  These
tests feed a replica a full round's vote column row by row and check the
rules the handlers state: distinct senders are counted once, a quorum
acts at the crossing row and only once the block is known, votes for a
certified, decided or compacted round write nothing, and votes that are
not this replica's to count are dropped.
"""

import random

import pytest

import repro.consensus.hotstuff as hotstuff
import repro.consensus.kauri as kauri
import repro.consensus.pbft as pbft
from repro.consensus.messages import Block, Commit, PrePrepare, Prepare, Vote
from repro.net.deployments import random_world_deployment

N = 48


@pytest.fixture
def deployment():
    return random_world_deployment(N, random.Random(7))


def deliver(handler, rows):
    for src, message in rows:
        handler(src, message)


# ----------------------------------------------------------------------
# HotStuff votes
# ----------------------------------------------------------------------
def make_hotstuff(deployment):
    cluster = hotstuff.HotStuffCluster(deployment, leader_mode="rr")
    replica = cluster.replicas[1]  # leader for height 1 = counts votes for 0
    replica.running = True
    return replica


def vote_rows(height, senders, block_hash="h"):
    return [(s, Vote(height, block_hash, s)) for s in senders]


def test_hotstuff_subquorum_votes_accumulate(deployment):
    replica = make_hotstuff(deployment)
    deliver(replica.handle_Vote, vote_rows(0, range(replica.quorum - 1)))
    assert replica.votes == {0: set(range(replica.quorum - 1))}
    assert 0 not in replica.qc_heights


def test_hotstuff_crossing_without_block_keeps_counting(deployment):
    # Quorum crosses but the block is unknown: every later row re-checks
    # and still lands in the vote set.
    replica = make_hotstuff(deployment)
    deliver(replica.handle_Vote, vote_rows(0, range(N - 1)))
    assert replica.votes == {0: set(range(N - 1))}
    assert 0 not in replica.qc_heights
    assert replica.high_qc is None


def test_hotstuff_crossing_row_forms_the_qc(deployment):
    replica = make_hotstuff(deployment)
    block = Block(
        height=0, proposer=0, parent="p", payload_count=1, timestamp=0.0
    )
    replica.block_at_height[0] = block
    rows = vote_rows(0, range(N - 1), block.hash)
    deliver(replica.handle_Vote, rows[: replica.quorum - 1])
    assert 0 not in replica.qc_heights
    deliver(replica.handle_Vote, rows[replica.quorum - 1 : replica.quorum])
    assert 0 in replica.qc_heights
    assert replica.high_qc.view == 0
    assert replica.high_qc.weight == float(replica.quorum)
    # Stragglers behind the QC neither re-open the vote set nor re-certify.
    qc = replica.high_qc
    deliver(replica.handle_Vote, rows[replica.quorum :])
    assert 0 not in replica.votes
    assert replica.high_qc is qc


def test_hotstuff_votes_after_qc_write_nothing(deployment):
    replica = make_hotstuff(deployment)
    replica.qc_heights.add(0)
    deliver(replica.handle_Vote, vote_rows(0, range(N - 1)))
    assert replica.votes == {}


def test_hotstuff_duplicate_voters_count_once(deployment):
    replica = make_hotstuff(deployment)
    deliver(replica.handle_Vote, vote_rows(0, [k % 20 for k in range(40)]))
    assert replica.votes == {0: set(range(20))}
    assert 0 not in replica.qc_heights


def test_hotstuff_mixed_heights_count_only_our_height(deployment):
    # Replica 1 leads height 1, so only height-0 votes are its to count.
    replica = make_hotstuff(deployment)
    rows = [(k, Vote(k % 2, "h", k)) for k in range(40)]
    deliver(replica.handle_Vote, rows)
    assert replica.votes == {0: set(range(0, 40, 2))}


# ----------------------------------------------------------------------
# PBFT acks
# ----------------------------------------------------------------------
def make_pbft(deployment, mode="static"):
    cluster = pbft.PbftCluster(deployment, mode=mode)
    replica = cluster.replicas[1]
    replica.running = True
    return replica


def ack_rows(cls, seq, senders, block_hash="h"):
    return [(s, cls(0, seq, block_hash, s)) for s in senders]


def bits(senders):
    mask = 0
    for s in senders:
        mask |= 1 << s
    return mask


def vote_weight(replica, src):
    return 1.0 if replica._weights is None else replica._weights[src]


def install_preprepare(replica, seq):
    block = Block(
        height=seq,
        proposer=replica.leader,
        parent="p",
        payload_count=1,
        timestamp=0.0,
    )
    replica.preprepares[seq] = PrePrepare(
        view=0, seq=seq, block=block, timestamp=0.0
    )
    return block


@pytest.mark.parametrize("mode", ["static", "aware"])
def test_pbft_prepares_without_preprepare_accumulate(deployment, mode):
    # No PrePrepare yet: every row accumulates, nothing fires.
    replica = make_pbft(deployment, mode)
    senders = list(range(2, N))
    deliver(replica.handle_Prepare, ack_rows(Prepare, 5, senders))
    assert replica.prepare_senders == {5: bits(senders)}
    assert replica.prepare_weight[5] == pytest.approx(
        sum(vote_weight(replica, s) for s in senders)
    )
    assert replica.prepare_weight[5] >= replica._quorum_weight
    assert replica.sent_commit == set()


@pytest.mark.parametrize("mode", ["static", "aware"])
def test_pbft_prepare_crossing_row_sends_commit(deployment, mode):
    # With the PrePrepare known, the row whose weight reaches the quorum
    # sends our Commit, retires the accumulators, and later rows are
    # dropped by the door.
    replica = make_pbft(deployment, mode)
    block = install_preprepare(replica, 5)
    senders = list(range(2, N))
    weight, crossing = 0.0, None
    for k, s in enumerate(senders):
        weight += vote_weight(replica, s)
        if weight >= replica._quorum_weight:
            crossing = k
            break
    assert crossing is not None and 0 < crossing < len(senders) - 1
    rows = ack_rows(Prepare, 5, senders, block.hash)
    deliver(replica.handle_Prepare, rows[:crossing])
    assert 5 not in replica.sent_commit
    deliver(replica.handle_Prepare, rows[crossing : crossing + 1])
    assert 5 in replica.sent_commit
    assert replica.prepare_senders == {}
    assert replica.prepare_weight == {}
    deliver(replica.handle_Prepare, rows[crossing + 1 :])
    assert replica.prepare_senders == {}
    assert replica.prepare_weight == {}


def test_pbft_duplicate_senders_count_once(deployment):
    replica = make_pbft(deployment)
    senders = [2 + (k % 10) for k in range(30)]
    deliver(replica.handle_Prepare, ack_rows(Prepare, 5, senders))
    assert replica.prepare_senders == {5: bits(range(2, 12))}
    assert replica.prepare_weight == {5: 10.0}


def test_pbft_commit_quorum_waits_for_our_commit(deployment):
    # A Commit quorum before our own Commit went out executes nothing;
    # every row keeps accumulating for the re-check.
    replica = make_pbft(deployment)
    senders = list(range(2, N))
    deliver(replica.handle_Commit, ack_rows(Commit, 5, senders))
    assert replica.commit_senders == {5: bits(senders)}
    assert replica.commit_weight == {5: float(len(senders))}
    assert replica.executed == set()


@pytest.mark.parametrize(
    "cls, decide",
    [
        pytest.param(Prepare, lambda r: r.sent_commit.add(5), id="prepare-after-commit"),
        pytest.param(Commit, lambda r: r.executed.add(5), id="commit-after-execute"),
        pytest.param(Prepare, lambda r: setattr(r, "_compact_floor", 5), id="prepare-compacted"),
        pytest.param(Commit, lambda r: setattr(r, "_compact_floor", 5), id="commit-compacted"),
    ],
)
def test_pbft_decided_votes_write_nothing(deployment, cls, decide):
    # The door: a decided or compacted seq's late votes return without
    # re-creating an accumulator.
    replica = make_pbft(deployment)
    decide(replica)
    handler = replica.handle_Prepare if cls is Prepare else replica.handle_Commit
    deliver(handler, ack_rows(cls, 5, range(2, N)))
    assert replica.prepare_senders == {}
    assert replica.prepare_weight == {}
    assert replica.commit_senders == {}
    assert replica.commit_weight == {}


def test_pbft_optiaware_sensor_sees_late_votes(deployment, monkeypatch):
    # The suspicion sensor is fed before the door, so a vote for a
    # decided phase still counts as an arrival.
    replica = make_pbft(deployment, mode="optiaware")
    seen = []
    monkeypatch.setattr(
        replica._sensor,
        "on_message",
        lambda seq, src, kind, now: seen.append((seq, src, kind)),
    )
    replica.sent_commit.add(5)
    replica.executed.add(5)
    deliver(replica.handle_Prepare, ack_rows(Prepare, 5, range(2, 6)))
    deliver(replica.handle_Commit, ack_rows(Commit, 5, range(2, 6)))
    assert seen == [(5, s, "write") for s in range(2, 6)] + [
        (5, s, "accept") for s in range(2, 6)
    ]
    assert replica.prepare_senders == {} and replica.commit_senders == {}


# ----------------------------------------------------------------------
# Kauri child votes
# ----------------------------------------------------------------------
def make_kauri(deployment):
    from repro.tree.topology import TreeConfiguration

    layout = list(range(N))
    random.Random(3).shuffle(layout)
    tree = TreeConfiguration.from_layout(layout)
    cluster = kauri.KauriCluster(deployment, tree)
    node = tree.intermediates[0]
    replica = cluster.replicas[node]
    replica.running = True
    return replica


def open_collection(replica, height):
    block = Block(
        height=height, proposer=replica.tree.root, parent="p",
        payload_count=1, timestamp=0.0,
    )
    collection = replica.collections[height] = kauri._Collection(block)
    collection.votes.add(replica.id)  # own vote
    return block, collection


def test_kauri_last_child_vote_sends_the_aggregate(deployment):
    replica = make_kauri(deployment)
    block, collection = open_collection(replica, 3)
    children = list(replica._my_children)
    assert len(children) > 1
    rows = vote_rows(3, children, block.hash)
    deliver(replica.handle_Vote, rows[:-1])
    assert 3 in replica.collections
    deliver(replica.handle_Vote, rows[-1:])
    # Sending the aggregate retires the collection.
    assert 3 not in replica.collections
    assert collection.votes == set(children) | {replica.id}
    assert replica.aggregation_suspicions == {}


def test_kauri_votes_from_non_children_are_dropped(deployment):
    replica = make_kauri(deployment)
    block, collection = open_collection(replica, 3)
    strangers = [
        s for s in range(N)
        if s not in replica._child_set and s != replica.id
    ]
    deliver(replica.handle_Vote, vote_rows(3, strangers, block.hash))
    assert collection.votes == {replica.id}
    assert 3 in replica.collections
