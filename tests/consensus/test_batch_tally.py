"""Bulk tally fast paths in the columnar batch handlers.

Wide same-class columns (a round's full vote or ack fanout) take a
set-reduction / ``np.cumsum`` fast path instead of the per-row loop.
The contract is exact equivalence: for any column, the fast path must
leave the replica in the same state, consume the same number of rows
and fire the same quorum action at the same ``sim.now`` as the loop.
These tests run both paths on identically-prepared replicas (the loop
is selected by raising ``_BATCH_TALLY_MIN``) and diff the state.
"""

import random

import pytest

import repro.consensus.hotstuff as hotstuff
import repro.consensus.kauri as kauri
import repro.consensus.pbft as pbft
from repro.consensus.messages import Commit, Prepare, Vote
from repro.net.deployments import random_world_deployment

N = 48


@pytest.fixture
def deployment():
    return random_world_deployment(N, random.Random(7))


def both_paths(monkeypatch, build, run):
    """Run ``run`` against a fresh replica with the loop and the fast
    path; return both outcomes."""
    outcomes = []
    for threshold in (1 << 30, 2):
        monkeypatch.setattr(hotstuff, "_BATCH_TALLY_MIN", threshold)
        monkeypatch.setattr(pbft, "_BATCH_TALLY_MIN", threshold)
        monkeypatch.setattr(kauri, "_BATCH_TALLY_MIN", threshold)
        replica = build()
        outcomes.append(run(replica))
    return outcomes


# ----------------------------------------------------------------------
# HotStuff votes
# ----------------------------------------------------------------------
def make_hotstuff(deployment):
    cluster = hotstuff.HotStuffCluster(
        deployment, leader_mode="rr", plane="columnar"
    )
    replica = cluster.replicas[1]  # leader for height 1 proposals = votes for 0
    replica.running = True
    return replica


def hotstuff_state(replica):
    return (
        {h: frozenset(v) for h, v in replica.votes.items()},
        frozenset(replica.qc_heights),
        replica.committed_height,
        replica.sim.now,
    )


def vote_column(height, senders):
    votes = tuple(Vote(height, "h", s) for s in senders)
    times = tuple(0.1 + k * 1e-6 for k in range(len(senders)))
    return tuple(senders), votes, times


def test_hotstuff_subquorum_column_matches_loop(monkeypatch, deployment):
    def run(replica):
        srcs, votes, times = vote_column(0, list(range(replica.quorum - 3)))
        consumed = replica.handle_VoteBatch(srcs, votes, times)
        return consumed, hotstuff_state(replica)

    loop, fast = both_paths(monkeypatch, lambda: make_hotstuff(deployment), run)
    assert fast == loop


def test_hotstuff_crossing_without_block_matches_loop(monkeypatch, deployment):
    # Quorum crosses but the block is unknown: the loop keeps scanning
    # (every later row re-checks); state must match exactly.
    def run(replica):
        srcs, votes, times = vote_column(0, list(range(N - 1)))
        consumed = replica.handle_VoteBatch(srcs, votes, times)
        return consumed, hotstuff_state(replica)

    loop, fast = both_paths(monkeypatch, lambda: make_hotstuff(deployment), run)
    assert fast == loop


def test_hotstuff_post_qc_column_matches_loop(monkeypatch, deployment):
    def run(replica):
        replica.qc_heights.add(0)
        srcs, votes, times = vote_column(0, list(range(N - 1)))
        consumed = replica.handle_VoteBatch(srcs, votes, times)
        return consumed, hotstuff_state(replica)

    loop, fast = both_paths(monkeypatch, lambda: make_hotstuff(deployment), run)
    assert fast == loop


def test_hotstuff_duplicate_voters_fall_back(monkeypatch, deployment):
    # A column with repeated senders cannot use the sliced crossing.
    def run(replica):
        senders = [k % 20 for k in range(40)]
        srcs, votes, times = vote_column(0, senders)
        consumed = replica.handle_VoteBatch(srcs, votes, times)
        return consumed, hotstuff_state(replica)

    loop, fast = both_paths(monkeypatch, lambda: make_hotstuff(deployment), run)
    assert fast == loop


def test_hotstuff_mixed_heights_fall_back(monkeypatch, deployment):
    def run(replica):
        votes = tuple(
            Vote(k % 2, "h", k) for k in range(40)
        )
        times = tuple(0.1 + k * 1e-6 for k in range(40))
        consumed = replica.handle_VoteBatch(tuple(range(40)), votes, times)
        return consumed, hotstuff_state(replica)

    loop, fast = both_paths(monkeypatch, lambda: make_hotstuff(deployment), run)
    assert fast == loop


# ----------------------------------------------------------------------
# PBFT acks
# ----------------------------------------------------------------------
def make_pbft(deployment, mode="static"):
    cluster = pbft.PbftCluster(deployment, mode=mode, plane="columnar")
    replica = cluster.replicas[1]
    replica.running = True
    return replica


def pbft_state(replica):
    # Sender accumulators are int bitmasks; ints compare by value, so a
    # plain dict copy captures them exactly.
    return (
        dict(replica.prepare_senders),
        dict(replica.prepare_weight),
        dict(replica.commit_senders),
        dict(replica.commit_weight),
        frozenset(replica.sent_commit),
        frozenset(replica.executed),
        replica.sim.now,
    )


def ack_column(cls, seq, senders):
    messages = tuple(cls(0, seq, "h", s) for s in senders)
    times = tuple(0.2 + k * 1e-6 for k in range(len(senders)))
    return tuple(senders), messages, times


@pytest.mark.parametrize("mode", ["static", "aware"])
def test_pbft_prepare_column_without_preprepare(monkeypatch, deployment, mode):
    # No PrePrepare yet: every row accumulates, nothing fires.
    def run(replica):
        srcs, messages, times = ack_column(Prepare, 5, list(range(2, N)))
        consumed = replica.handle_PrepareBatch(srcs, messages, times)
        return consumed, pbft_state(replica)

    loop, fast = both_paths(
        monkeypatch, lambda: make_pbft(deployment, mode), run
    )
    assert fast == loop


@pytest.mark.parametrize("mode", ["static", "aware"])
def test_pbft_prepare_crossing_matches_loop(monkeypatch, deployment, mode):
    # With the PrePrepare known, the quorum-crossing row broadcasts our
    # Commit and yields; consumed counts and weights must match.
    from repro.consensus.messages import Block, PrePrepare

    def run(replica):
        block = Block(
            height=5,
            proposer=replica.leader,
            parent="p",
            payload_count=1,
            timestamp=0.0,
        )
        replica.preprepares[5] = PrePrepare(
            view=0, seq=5, block=block, timestamp=0.0
        )
        srcs, messages, times = ack_column(Prepare, 5, list(range(2, N)))
        # Match the block hash so the commit can actually fire.
        messages = tuple(
            Prepare(0, 5, block.hash, s) for s in range(2, N)
        )
        consumed = replica.handle_PrepareBatch(srcs, messages, times)
        return consumed, pbft_state(replica)

    loop, fast = both_paths(
        monkeypatch, lambda: make_pbft(deployment, mode), run
    )
    assert fast == loop
    assert 0 < loop[0] < N - 2  # genuinely yielded at the crossing row


def test_pbft_duplicate_senders_fall_back(monkeypatch, deployment):
    def run(replica):
        senders = [2 + (k % 10) for k in range(30)]
        srcs, messages, times = ack_column(Prepare, 5, senders)
        consumed = replica.handle_PrepareBatch(srcs, messages, times)
        return consumed, pbft_state(replica)

    loop, fast = both_paths(monkeypatch, lambda: make_pbft(deployment), run)
    assert fast == loop


def test_pbft_commit_column_matches_loop(monkeypatch, deployment):
    def run(replica):
        srcs, messages, times = ack_column(Commit, 5, list(range(2, N)))
        consumed = replica.handle_CommitBatch(srcs, messages, times)
        return consumed, pbft_state(replica)

    loop, fast = both_paths(monkeypatch, lambda: make_pbft(deployment), run)
    assert fast == loop


@pytest.mark.parametrize(
    "cls, decide",
    [
        pytest.param(Prepare, lambda r: r.sent_commit.add(5), id="prepare-after-commit"),
        pytest.param(Commit, lambda r: r.executed.add(5), id="commit-after-execute"),
        pytest.param(Prepare, lambda r: setattr(r, "_compact_floor", 5), id="prepare-compacted"),
        pytest.param(Commit, lambda r: setattr(r, "_compact_floor", 5), id="commit-compacted"),
    ],
)
def test_pbft_decided_column_writes_nothing(monkeypatch, deployment, cls, decide):
    # The door: a decided or compacted seq's late votes are consumed on
    # both paths without re-creating an accumulator.
    def run(replica):
        decide(replica)
        srcs, messages, times = ack_column(cls, 5, list(range(2, N)))
        handler = (
            replica.handle_PrepareBatch if cls is Prepare else replica.handle_CommitBatch
        )
        consumed = handler(srcs, messages, times)
        return consumed, pbft_state(replica)

    loop, fast = both_paths(monkeypatch, lambda: make_pbft(deployment), run)
    assert fast == loop
    consumed, state = loop
    assert consumed == N - 2
    assert state[:4] == ({}, {}, {}, {})


def test_pbft_optiaware_still_shadows_batch_handlers(deployment):
    replica = make_pbft(deployment, mode="optiaware")
    assert replica.handle_PrepareBatch is None
    assert replica.handle_CommitBatch is None


# ----------------------------------------------------------------------
# Kauri child votes
# ----------------------------------------------------------------------
def make_kauri(deployment):
    from repro.tree.topology import TreeConfiguration

    layout = list(range(N))
    random.Random(3).shuffle(layout)
    tree = TreeConfiguration.from_layout(layout)
    cluster = kauri.KauriCluster(deployment, tree, plane="columnar")
    # Pick a real intermediate from the installed tree.
    node = tree.intermediates[0]
    replica = cluster.replicas[node]
    replica.running = True
    return replica


def test_kauri_child_vote_column_matches_loop(monkeypatch, deployment):
    from repro.consensus.kauri import _Collection
    from repro.consensus.messages import Block

    def run(replica):
        block = Block(
            height=3, proposer=replica.tree.root, parent="p",
            payload_count=1, timestamp=0.0,
        )
        collection = replica.collections[3] = _Collection(block)
        children = list(replica._my_children)
        votes = tuple(Vote(3, block.hash, c) for c in children)
        times = tuple(0.3 + k * 1e-6 for k in range(len(children)))
        consumed = replica.handle_VoteBatch(tuple(children), votes, times)
        # Sending the aggregate retires the collection.
        sent = 3 not in replica.collections
        return consumed, frozenset(collection.votes), sent

    loop, fast = both_paths(monkeypatch, lambda: make_kauri(deployment), run)
    assert fast == loop
