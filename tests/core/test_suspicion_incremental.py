"""Incremental-vs-rebuild equivalence for the SuspicionMonitor.

The monitor maintains min-phase maps, effective-item contributions and
the suspicion graph as mutations (PR 5); these tests replay randomized
log interleavings -- slow suspicions, reciprocations ("forgives"),
misbehavior proofs, view changes, leader notes -- and assert the
incremental state equals a from-scratch rebuild at *every* step, via

* :class:`oracles.RebuildChecked` (a test-side subclass that re-derives
  everything from scratch after every mutation and raises on the first
  divergence), and
* an independent prefix replay: a fresh monitor fed the same committed
  prefix must land on the identical (C, K, u, G, active) state.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RebuildChecked, rebuilt_state
from repro.core.log import AppendOnlyLog
from repro.core.misbehavior import InvalidSignatureProof, MisbehaviorMonitor
from repro.core.records import ComplaintRecord, SuspicionKind, SuspicionRecord
from repro.core.suspicion import SuspicionMonitor
from repro.crypto.signatures import KeyRegistry
from repro.tree.candidates import TreeSuspicionMonitor

MSG_TYPES = ("write", "aggregate", "propose", "proposal-timestamp")


#: Each monitor class with the from-scratch rebuild check mixed in.
CHECKED = {
    cls: type(f"Checked{cls.__name__}", (RebuildChecked, cls), {})
    for cls in (SuspicionMonitor, TreeSuspicionMonitor)
}


@st.composite
def op_streams(draw):
    """(n, f, ops): a deterministic interleaving of monitor inputs."""
    n = draw(st.integers(min_value=4, max_value=14))
    f = (n - 1) // 3
    count = draw(st.integers(min_value=0, max_value=60))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    ops = []
    view = 0
    for index in range(count):
        roll = rng.random()
        if roll < 0.55:
            a, b = rng.sample(range(n), 2)
            ops.append(
                (
                    "suspicion",
                    SuspicionRecord(
                        reporter=a,
                        suspect=b,
                        kind=SuspicionKind.SLOW,
                        round_id=rng.randrange(8),
                        msg_type=rng.choice(MSG_TYPES),
                        phase=rng.randrange(4),
                        view=view,
                    ),
                )
            )
        elif roll < 0.72:
            # A reciprocation / forgive of a random (possibly absent) pair.
            a, b = rng.sample(range(n), 2)
            ops.append(
                (
                    "suspicion",
                    SuspicionRecord(
                        reporter=a,
                        suspect=b,
                        kind=SuspicionKind.FALSE,
                        round_id=rng.randrange(8),
                        msg_type="reciprocation",
                        phase=rng.randrange(4),
                        view=view,
                    ),
                )
            )
        elif roll < 0.80:
            ops.append(("complaint", rng.randrange(n)))
        elif roll < 0.90:
            view += rng.randrange(1, 3)
            ops.append(("view", view))
        else:
            ops.append(("leader", rng.randrange(8), rng.randrange(n)))
    return n, f, ops


def build(monitor_cls, n, f, registry, **kwargs):
    log = AppendOnlyLog()
    misbehavior = MisbehaviorMonitor(0, log, registry)
    monitor = monitor_cls(0, log, n=n, f=f, misbehavior=misbehavior, **kwargs)
    return log, monitor


def apply_op(log, monitor, registry, op):
    if op[0] == "suspicion":
        log.append(op[1])
    elif op[0] == "complaint":
        accused = op[1]
        log.append(
            ComplaintRecord(
                reporter=(accused + 1) % monitor.n,
                accused=accused,
                kind="invalid-signature",
                proof=InvalidSignatureProof(
                    accused=accused,
                    payload=f"payload-{accused}",
                    signature=registry.forge(accused, f"payload-{accused}"),
                ),
            )
        )
    elif op[0] == "view":
        monitor.advance_view(op[1])
    else:
        monitor.note_round_leader(op[1], op[2])


def active_suspicions(monitor):
    """The monitor's active (reporter, suspect) pairs, in log order."""
    return [(item.reporter, item.suspect) for item in monitor._items]


def state_of(monitor):
    return (
        monitor.K,
        monitor.u,
        monitor.C,
        monitor.graph.vertices(),
        monitor.graph.edges(),
        active_suspicions(monitor),
        monitor.filtered_count,
    )


@pytest.mark.parametrize("monitor_cls", [SuspicionMonitor, TreeSuspicionMonitor])
@given(op_streams())
@settings(max_examples=40, deadline=None)
def test_checked_mode_accepts_random_interleavings(monitor_cls, stream):
    """RebuildChecked re-derives from scratch after every mutation and
    raises on divergence -- a pass IS the per-step equivalence."""
    n, f, ops = stream
    registry = KeyRegistry(n)
    log, monitor = build(CHECKED[monitor_cls], n, f, registry)
    for op in ops:
        apply_op(log, monitor, registry, op)


@pytest.mark.parametrize("monitor_cls", [SuspicionMonitor, TreeSuspicionMonitor])
@given(op_streams())
@settings(max_examples=15, deadline=None)
def test_every_prefix_replay_matches(monitor_cls, stream):
    """After every step, a fresh monitor replaying the same prefix lands
    on the identical derived state (no hidden order dependence)."""
    n, f, ops = stream
    registry = KeyRegistry(n)
    log, monitor = build(monitor_cls, n, f, registry)
    for index, op in enumerate(ops):
        apply_op(log, monitor, registry, op)
        replay_log, replay_monitor = build(monitor_cls, n, f, registry)
        for replay_op in ops[: index + 1]:
            apply_op(replay_log, replay_monitor, registry, replay_op)
        assert state_of(replay_monitor) == state_of(monitor)


def test_checked_mode_detects_planted_divergence():
    """Corrupting the incremental registries must trip the checker (the
    divergence-detection twin of the optimizer's ScoreChecked tests)."""
    log = AppendOnlyLog()
    monitor = CHECKED[SuspicionMonitor](0, log, n=7, f=2)
    log.append(
        SuspicionRecord(
            reporter=1, suspect=2, kind=SuspicionKind.SLOW, round_id=1, phase=1
        )
    )
    monitor._edge_counts[(3, 4)] = 1  # plant a bogus effective edge
    monitor._dirty = True
    monitor._refresh()
    with pytest.raises(AssertionError):
        log.append(
            SuspicionRecord(
                reporter=1, suspect=3, kind=SuspicionKind.SLOW, round_id=2, phase=1
            )
        )


def test_rebuilt_state_leaves_the_monitor_untouched():
    """The oracle derives on its own graph: the tree monitor's E_d and T
    are the objects its last refresh installed, before and after."""
    log = AppendOnlyLog()
    monitor = TreeSuspicionMonitor(0, log, n=13, f=4)
    for round_id, (a, b) in enumerate([(1, 2), (2, 3), (1, 3), (5, 6)]):
        log.append(
            SuspicionRecord(reporter=a, suspect=b, kind=SuspicionKind.SLOW,
                            round_id=round_id, phase=1)
        )
    e_d, t_set = monitor.e_d, monitor.t_set
    assert e_d and t_set  # (1, 2) in E_d, 3 closes a triangle with it
    crashed, graph, candidates, u = rebuilt_state(monitor)
    assert monitor.e_d is e_d and monitor.t_set is t_set
    assert (candidates, u) == (monitor.K, monitor.u)


def test_eviction_order_preserved_under_overflow():
    """The deque-based overflow eviction removes oldest-first, exactly
    like the old list.pop(0)."""
    log = AppendOnlyLog()
    monitor = SuspicionMonitor(0, log, n=5, f=1)
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for index, (a, b) in enumerate(pairs):
        log.append(
            SuspicionRecord(
                reporter=a, suspect=b, kind=SuspicionKind.SLOW,
                round_id=index, phase=1,
            )
        )
    # Lemma 1 kept K at n - f by evicting the *oldest* suspicions; the
    # survivors must be a suffix of the original stream.
    survivors = active_suspicions(monitor)
    assert survivors == [tuple(p) for p in pairs[len(pairs) - len(survivors):]]
    assert len(monitor.K) >= 4


def test_aging_eviction_matches_reference_state():
    """Stability-window aging pops the oldest item and the incremental
    state tracks the from-scratch rebuild through it."""
    log = AppendOnlyLog()
    monitor = CHECKED[SuspicionMonitor](0, log, n=7, f=2, stability_window=2)
    log.append(
        SuspicionRecord(reporter=1, suspect=2, kind=SuspicionKind.SLOW,
                        round_id=1, phase=1)
    )
    log.append(
        SuspicionRecord(reporter=3, suspect=4, kind=SuspicionKind.SLOW,
                        round_id=2, phase=1, view=0)
    )
    for view in range(1, 12):
        monitor.advance_view(view)
    assert active_suspicions(monitor) == []
    assert monitor.u == 0


def test_reciprocation_drains_only_its_pairs_pending_items():
    """A ⟨False⟩ record touches the pair's not-yet-reciprocated items and
    nothing else (amortised O(1)); items already aged one-way stay
    unreciprocated and leave the index for good."""
    log = AppendOnlyLog()
    monitor = CHECKED[SuspicionMonitor](0, log, n=7, f=2)

    def slow(reporter, suspect, round_id):
        log.append(SuspicionRecord(reporter=reporter, suspect=suspect,
                                   kind=SuspicionKind.SLOW, round_id=round_id))

    def false(reporter, suspect, round_id):
        log.append(SuspicionRecord(reporter=reporter, suspect=suspect,
                                   kind=SuspicionKind.FALSE, round_id=round_id))

    for round_id in range(5):
        slow(1, 2, round_id)
    slow(3, 4, 0)
    assert len(monitor._pair_pending[(1, 2)]) == 5
    false(2, 1, 0)
    assert (1, 2) not in monitor._pair_pending
    by_pair = {}
    for item in monitor._items:
        by_pair.setdefault((item.reporter, item.suspect), []).append(item)
    assert all(item.reciprocated for item in by_pair[(1, 2)])
    assert not by_pair[(3, 4)][0].reciprocated
    slow(1, 2, 9)
    assert [item.round_id for item in monitor._pair_pending[(1, 2)]] == [9]
    # (3, 4) is never answered within f + 1 views: it ages one-way, and a
    # late reciprocation neither revives it nor keeps it indexed.
    monitor.advance_view(3)
    assert by_pair[(3, 4)][0].one_way
    false(4, 3, 0)
    assert not by_pair[(3, 4)][0].reciprocated
    assert (3, 4) not in monitor._pair_pending
