"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(2.0, order.append, "late")
    sim.schedule(1.0, order.append, "early")
    sim.schedule(3.0, order.append, "last")
    sim.run()
    assert order == ["early", "late", "last"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for label in ("a", "b", "c"):
        sim.schedule(1.0, order.append, label)
    sim.run()
    assert order == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1, 5]


def test_event_exactly_at_until_is_executed():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, "x")
    sim.run(until=2.0)
    assert fired == ["x"]


def test_cancelled_event_is_skipped():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(2.0, fired.append, "kept")
    handle.cancel()
    sim.run()
    assert fired == ["kept"]


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


@pytest.mark.parametrize("method", ["schedule", "schedule_at"])
def test_nan_time_is_refused(method):
    # NaN fails every comparison; in the heap it breaks the order and a
    # run never reaches its horizon.
    sim = Simulator()
    with pytest.raises(SimulationError):
        getattr(sim, method)(float("nan"), lambda: None)
    assert sim.pending == 0


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    order = []

    def first():
        order.append("first")
        sim.schedule(1.0, order.append, "nested")

    sim.schedule(1.0, first)
    sim.run()
    assert order == ["first", "nested"]
    assert sim.now == 2.0


def test_max_events_budget():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_pending_count_ignores_cancelled():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.pending == 1


def test_post_orders_like_schedule():
    """post() (the no-handle fast path) and schedule() share one queue and
    one ordering rule: time, then insertion order."""
    sim = Simulator()
    order = []
    sim.schedule(1.0, order.append, "handle-1")
    sim.post(1.0, order.append, ("post-1",))
    sim.post(0.5, order.append, ("post-early",))
    sim.schedule(1.0, order.append, "handle-2")
    sim.run()
    assert order == ["post-early", "handle-1", "post-1", "handle-2"]


@pytest.mark.parametrize("delay", [-0.1, float("nan")])
def test_post_rejects_negative_delay(delay):
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.post(delay, lambda: None)


def test_pending_counts_posted_events():
    sim = Simulator()
    sim.post(1.0, lambda: None)
    handle = sim.schedule(2.0, lambda: None)
    handle.cancel()
    assert sim.pending == 1


def test_max_queue_depth_tracks_high_water_mark():
    sim = Simulator()
    assert sim.max_queue_depth == 0
    for i in range(5):
        sim.schedule(float(i + 1), lambda: None)
    sim.post(0.5, lambda: None)
    assert sim.max_queue_depth == 6
    sim.run()
    # Draining does not lower the recorded peak.
    assert sim.max_queue_depth == 6
    assert sim.pending == 0


def test_determinism_same_seed():
    def run_once(seed):
        sim = Simulator(seed=seed)
        draws = []
        for delay in (1.0, 2.0):
            sim.schedule(delay, lambda: draws.append(sim.rng.random()))
        sim.run()
        return draws

    assert run_once(7) == run_once(7)
    assert run_once(7) != run_once(8)


def test_until_respected_when_head_is_cancelled():
    # A cancelled head used to be popped inside step() without re-checking
    # ``until``, letting an event beyond the horizon execute.
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "cancelled")
    sim.schedule(5.0, fired.append, "beyond-horizon")
    handle.cancel()
    sim.run(until=2.0)
    assert fired == []
    assert sim.now == 2.0
    sim.run()
    assert fired == ["beyond-horizon"]


def test_max_events_counts_only_executed_events():
    sim = Simulator()
    fired = []
    handles = [sim.schedule(float(i + 1), fired.append, i) for i in range(10)]
    for i in (0, 2, 4):  # cancelled entries must not consume the budget
        handles[i].cancel()
    sim.run(max_events=3)
    assert fired == [1, 3, 5]
    assert sim.events_processed == 3


def test_events_processed_matches_across_runs():
    sim = Simulator()
    for i in range(6):
        sim.schedule(float(i + 1), lambda: None)
    sim.run(max_events=2)
    assert sim.events_processed == 2
    sim.run(max_events=2)
    assert sim.events_processed == 4
    sim.run()
    assert sim.events_processed == 6


def test_budget_stop_does_not_jump_clock_past_pending_events():
    # run(until=..., max_events=...) stopping on the budget must not
    # advance the clock over still-pending events, or a later run would
    # move time backwards.
    sim = Simulator()
    seen = []
    for i in range(6):
        sim.schedule(float(i + 1), lambda t=i + 1: seen.append((t, sim.now)))
    sim.run(until=10.0, max_events=2)
    assert sim.now == 2.0
    sim.run(until=10.0)
    assert [t for t, _ in seen] == [1, 2, 3, 4, 5, 6]
    assert all(t == now for t, now in seen)
    assert sim.now == 10.0
