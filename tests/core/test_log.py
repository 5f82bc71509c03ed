"""Tests for the append-only log."""

import pytest

from repro.core.log import AppendOnlyLog
from repro.core.records import LatencyVectorRecord, SuspicionKind, SuspicionRecord


def vector(sender=0, n=3):
    return LatencyVectorRecord(sender=sender, vector=tuple([0.01] * n))


def suspicion(reporter=0, suspect=1):
    return SuspicionRecord(
        reporter=reporter, suspect=suspect, kind=SuspicionKind.SLOW, round_id=1
    )


def test_append_assigns_sequential_seqs():
    log = AppendOnlyLog()
    entries = [log.append(vector(sender)) for sender in range(3)]
    assert [entry.seq for entry in entries] == [0, 1, 2]
    assert len(log) == 3
    assert log.last_seq == 2


def test_subscribers_notified_by_type():
    log = AppendOnlyLog()
    vectors, suspicions = [], []
    log.subscribe(LatencyVectorRecord, lambda entry: vectors.append(entry))
    log.subscribe(SuspicionRecord, lambda entry: suspicions.append(entry))
    log.append(vector())
    log.append(suspicion())
    assert len(vectors) == 1
    assert len(suspicions) == 1


def test_subscription_order_preserved():
    log = AppendOnlyLog()
    order = []
    log.subscribe(LatencyVectorRecord, lambda entry: order.append("first"))
    log.subscribe(LatencyVectorRecord, lambda entry: order.append("second"))
    log.append(vector())
    assert order == ["first", "second"]


def test_view_stamped_on_entries():
    log = AppendOnlyLog()
    log.append(vector())
    log.advance_view(3)
    entry = log.append(vector())
    assert log[0].view == 0
    assert entry.view == 3


def test_view_cannot_go_backwards():
    log = AppendOnlyLog()
    log.advance_view(2)
    with pytest.raises(ValueError):
        log.advance_view(1)


def test_entries_of_type_and_histogram():
    log = AppendOnlyLog()
    log.append(vector())
    log.append(suspicion())
    log.append(suspicion())
    assert len(log.entries_of_type(SuspicionRecord)) == 2
    assert log.type_histogram() == {
        "LatencyVectorRecord": 1,
        "SuspicionRecord": 2,
    }


def test_entries_of_type_respects_subclasses_and_order():
    """The per-type index must serve superclass queries merged in commit
    order, exactly like the old full-log isinstance scan."""

    class Base:
        wire_size = 0

    class DerivedA(Base):
        pass

    class DerivedB(Base):
        pass

    log = AppendOnlyLog()
    first = log.append(DerivedA())
    log.append(vector())
    second = log.append(DerivedB())
    third = log.append(DerivedA())
    by_base = log.entries_of_type(Base)
    assert [entry.seq for entry in by_base] == [first.seq, second.seq, third.seq]
    assert [entry.seq for entry in log.entries_of_type(DerivedA)] == [0, 3]
    assert log.entries_of_type(int) == []


def test_subscriber_added_after_appends_sees_only_later_entries():
    """Subscribing must invalidate the precomputed dispatch lists so the
    new callback starts firing for already-seen record types."""
    log = AppendOnlyLog()
    log.append(vector())
    seen = []
    log.subscribe(LatencyVectorRecord, lambda entry: seen.append(entry.seq))
    log.append(vector())
    log.append(vector())
    assert seen == [1, 2]


def test_histogram_counts_via_index_match_entry_order():
    log = AppendOnlyLog()
    log.append(suspicion())
    log.append(vector())
    log.append(suspicion())
    # First-appearance order of type names, counts per type.
    assert list(log.type_histogram().items()) == [
        ("SuspicionRecord", 2),
        ("LatencyVectorRecord", 1),
    ]


def test_append_many_equivalent_to_sequential_appends():
    """Same seqs, views, dispatch order and accounting as a loop."""
    records = [vector(0), suspicion(0, 1), vector(1), suspicion(2, 0)]
    loop_log, batch_log = AppendOnlyLog(), AppendOnlyLog()
    loop_seen, batch_seen = [], []
    loop_log.subscribe(object, lambda entry: loop_seen.append(entry.seq))
    batch_log.subscribe(object, lambda entry: batch_seen.append(entry.seq))
    loop_log.advance_view(2)
    batch_log.advance_view(2)
    loop_entries = [loop_log.append(record) for record in records]
    batch_entries = batch_log.append_many(records)
    assert [e.seq for e in batch_entries] == [e.seq for e in loop_entries]
    assert [e.view for e in batch_entries] == [2, 2, 2, 2]
    assert batch_seen == loop_seen
    assert batch_log.type_histogram() == loop_log.type_histogram()


def test_append_many_explicit_view_and_mid_burst_view_change():
    log = AppendOnlyLog()
    explicit = log.append_many([vector(), vector()], view=5)
    assert [e.view for e in explicit] == [5, 5]

    # A callback advancing the view mid-burst stamps later records with
    # the new view, exactly like sequential appends.
    log2 = AppendOnlyLog()
    log2.subscribe(
        LatencyVectorRecord,
        lambda entry: log2.advance_view(log2.current_view + 1),
    )
    burst = log2.append_many([vector(), vector(), vector()])
    assert [e.view for e in burst] == [0, 1, 2]


def test_append_many_subscriber_added_mid_burst_sees_later_entries():
    log = AppendOnlyLog()
    late_seen = []

    def first_callback(entry):
        if entry.seq == 0:
            log.subscribe(
                LatencyVectorRecord, lambda e: late_seen.append(e.seq)
            )

    log.subscribe(LatencyVectorRecord, first_callback)
    log.append_many([vector(), vector(), vector()])
    assert late_seen == [1, 2]


def test_wire_size_cached_on_entry():
    class Counting:
        reads = 0

        @property
        def wire_size(self):
            Counting.reads += 1
            return 7

    log = AppendOnlyLog()
    entry = log.append(Counting())
    baseline_reads = Counting.reads
    assert entry.wire_size == 7
    assert entry.wire_size == 7  # second read served from the cache
    assert Counting.reads == baseline_reads + 1


def test_same_order_gives_same_entries_on_two_logs():
    """Determinism underpinning monitor consistency (Table 1)."""
    records = [vector(0), suspicion(0, 1), vector(1), suspicion(2, 0)]
    log_a, log_b = AppendOnlyLog(), AppendOnlyLog()
    for record in records:
        log_a.append(record)
        log_b.append(record)
    assert [e.record for e in log_a] == [e.record for e in log_b]
    assert [e.seq for e in log_a] == [e.seq for e in log_b]
