"""Tests for the Byzantine fault library."""

import random

import pytest

from repro.core.log import AppendOnlyLog
from repro.faults.churn import ChurnSchedule
from repro.faults.delay import DelayAttack, DeltaDelayAttack, StealthDelayAttack
from repro.faults.false_suspicion import TargetedSuspicionAttack
from repro.faults.loss import MessageLoss
from repro.faults.window import ActivationWindow
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.tree.candidates import TreeSuspicionMonitor
from repro.tree.topology import TreeConfiguration


class FakeMsg:
    pass


class PrePrepare(FakeMsg):
    pass


class Forward(FakeMsg):
    pass


def test_delay_attack_only_in_window_and_type():
    clock = {"now": 0.0}
    attack = DelayAttack(
        attacker=2, message_types=("PrePrepare",), extra_delay=0.5,
        start=10.0, end=20.0, now_fn=lambda: clock["now"],
    )
    message = PrePrepare()
    # Outside the window: untouched.
    assert attack(2, 1, message, 0.01) == (message, 0.01)
    clock["now"] = 15.0
    assert attack(2, 1, message, 0.01) == (message, 0.51)
    # Other senders and other message types untouched.
    assert attack(3, 1, message, 0.01) == (message, 0.01)
    other = Forward()
    assert attack(2, 1, other, 0.01) == (other, 0.01)
    assert attack.messages_delayed == 1


def test_windowed_attack_without_clock_fails_loudly():
    """A start/end window with the old silent default clock was a dead
    attack; it must now refuse construction."""
    with pytest.raises(ValueError, match="now_fn"):
        DelayAttack(attacker=1, message_types=("PrePrepare",), extra_delay=0.5,
                    start=10.0)
    with pytest.raises(ValueError, match="now_fn"):
        ActivationWindow(end=20.0)
    # The trivial always-active window needs no clock.
    attack = DelayAttack(attacker=1, message_types=("PrePrepare",), extra_delay=0.5)
    message = PrePrepare()
    assert attack(1, 2, message, 0.01) == (message, 0.51)


def test_activation_window_boundaries_are_inclusive():
    clock = {"now": 0.0}
    attack = DelayAttack(
        attacker=1, message_types=("PrePrepare",), extra_delay=0.5,
        start=10.0, end=20.0, now_fn=lambda: clock["now"],
    )
    message = PrePrepare()
    for now, expected in ((9.999, False), (10.0, True), (15.0, True),
                          (20.0, True), (20.001, False)):
        clock["now"] = now
        delayed = attack(1, 2, message, 0.01) == (message, 0.51)
        assert delayed is expected
    with pytest.raises(ValueError, match="precedes"):
        ActivationWindow(start=5.0, end=1.0, now_fn=lambda: 0.0)


def test_delta_delay_multiplies_within_bound():
    attack = DeltaDelayAttack(attackers={1}, delta=1.4, message_types=("Forward",))
    message = Forward()
    _, delay = attack(1, 2, message, 0.1)
    assert delay == 0.1 * 1.4
    _, delay = attack(3, 2, message, 0.1)
    assert delay == 0.1


def test_delta_delay_window_gates_activity():
    clock = {"now": 0.0}
    attack = DeltaDelayAttack(attackers={1}, delta=2.0, message_types=("Forward",),
                              start=5.0, end=10.0, now_fn=lambda: clock["now"])
    message = Forward()
    assert attack(1, 2, message, 0.1) == (message, 0.1)
    clock["now"] = 5.0
    assert attack(1, 2, message, 0.1) == (message, 0.2)
    clock["now"] = 10.5
    assert attack(1, 2, message, 0.1) == (message, 0.1)


def test_stealth_attack_fills_suspicion_budget():
    expected = {(1, 2): 0.1, (1, 3): 0.5}
    attack = StealthDelayAttack(
        attackers={1}, delta=1.4, expected_delay=lambda a, b: expected[(a, b)],
        headroom=0.95,
    )
    message = Forward()
    _, delay = attack(1, 2, message, 0.102)  # jittered base delay
    assert delay == pytest.approx(0.95 * 1.4 * 0.1)
    # A link already slower than the budget is left alone.
    _, delay = attack(1, 3, message, 0.9)
    assert delay == 0.9
    # Non-attackers untouched.
    assert attack(2, 1, message, 0.05) == (message, 0.05)
    assert attack.messages_delayed == 1
    assert attack.total_added == pytest.approx(0.95 * 1.4 * 0.1 - 0.102)
    with pytest.raises(ValueError, match="headroom"):
        StealthDelayAttack({1}, 1.2, lambda a, b: 0.1, headroom=0.0)


def test_message_loss_is_seeded_and_filtered():
    def run_stream(rng_seed):
        loss = MessageLoss(rate=0.5, rng=random.Random(rng_seed))
        outcomes = [loss(0, 1, FakeMsg(), 0.01) is None for _ in range(40)]
        return loss, outcomes

    loss_a, drops_a = run_stream(7)
    _loss_b, drops_b = run_stream(7)
    assert drops_a == drops_b  # same stream, same losses
    assert 0 < loss_a.messages_lost < 40
    assert loss_a.messages_seen == 40

    # Filtered messages pass untouched and consume no random draw.
    loss = MessageLoss(rate=1.0, rng=random.Random(0), senders={5},
                       message_types=("PrePrepare",))
    message = FakeMsg()
    assert loss(0, 1, message, 0.01) == (message, 0.01)  # wrong sender
    assert loss(5, 1, message, 0.01) == (message, 0.01)  # wrong type
    assert loss.messages_seen == 0
    assert loss(5, 1, PrePrepare(), 0.01) is None

    with pytest.raises(ValueError, match="rate"):
        MessageLoss(rate=1.5, rng=random.Random(0))


def test_message_loss_never_drops_self_delivery():
    loss = MessageLoss(rate=1.0, rng=random.Random(0))
    message = FakeMsg()
    assert loss(3, 3, message, 0.0) == (message, 0.0)
    assert loss(3, 4, message, 0.01) is None
    assert loss.messages_lost == 1


def test_targeted_suspicion_attack_removes_pairs():
    log = AppendOnlyLog()
    monitor = TreeSuspicionMonitor(0, log, n=13, f=4)
    tree = TreeConfiguration.from_layout(range(13))
    attack = TargetedSuspicionAttack(
        faulty_pool=[9, 10, 11, 12], rng=random.Random(1)
    )
    suspicion = attack.attack_round(log, tree, round_id=1)
    assert suspicion is not None
    assert suspicion.reporter in {9, 10, 11, 12}
    assert suspicion.suspect in tree.internal_nodes
    # Both the attacker and the targeted internal node left K.
    assert suspicion.reporter not in monitor.K
    assert suspicion.suspect not in monitor.K
    assert monitor.u == 1


def test_targeted_attack_exhausts_pool():
    log = AppendOnlyLog()
    tree = TreeConfiguration.from_layout(range(13))
    attack = TargetedSuspicionAttack(faulty_pool=[12], rng=random.Random(1))
    assert attack.attack_round(log, tree, 1) is not None
    assert attack.attack_round(log, tree, 2) is None


def test_churn_cycles_crash_and_revive_with_hook():
    sim = Simulator()
    network = Network(sim, lambda a, b: 0.01)
    revived = []
    schedule = ChurnSchedule(sim, network, on_revive=revived.append)
    schedule.cycle(pool=[1, 2], period=10.0, downtime=4.0, end=45.0)
    sim.run(until=60.0)
    # Crashes at 10, 20, 30, 40 (round-robin 1,2,1,2), each up again 4 s later.
    assert [victim for _t, victim in schedule.crashes] == [1, 2, 1, 2]
    assert revived == [1, 2, 1, 2]
    assert len(schedule.revivals) == 4
    assert not network.is_down(1) and not network.is_down(2)


def test_churn_respects_window_and_skips_down_victims():
    sim = Simulator()
    network = Network(sim, lambda a, b: 0.01)
    schedule = ChurnSchedule(sim, network)
    # Victim stays down longer than the period: the next cycle must skip
    # it rather than double-crash.
    schedule.cycle(pool=[7], period=5.0, downtime=12.0, end=14.0)
    sim.run(until=30.0)
    assert [victim for _t, victim in schedule.crashes] == [7]
    assert schedule.revivals and schedule.revivals[0][0] == 17.0
    # start + period > end: empty schedule, no stray crash past the window.
    late = ChurnSchedule(sim, network)
    late.cycle(pool=[1], period=10.0, downtime=1.0, start=28.0, end=35.0)
    sim.run(until=60.0)
    assert late.crashes == []


def test_churn_random_victims_are_seeded():
    def run(seed):
        sim = Simulator(seed=seed)
        network = Network(sim, lambda a, b: 0.01)
        schedule = ChurnSchedule(sim, network)
        schedule.cycle(pool=[1, 2, 3, 4], period=5.0, downtime=1.0, end=50.0,
                       rng=sim.derive_rng("churn"))
        sim.run(until=60.0)
        return [victim for _t, victim in schedule.crashes]

    assert run(3) == run(3)
    assert len(run(3)) == 10
    with pytest.raises(ValueError, match="non-empty"):
        ChurnSchedule(Simulator(), Network(Simulator(), lambda a, b: 0.0)).cycle(
            pool=[], period=1.0, downtime=0.5
        )
