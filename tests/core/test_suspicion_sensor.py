"""Tests for the SuspicionSensor (§4.2.3 conditions (a)-(c))."""

from oracles import plan_from_expected
from repro.core.log import AppendOnlyLog
from repro.core.records import SuspicionKind, SuspicionRecord
from repro.core.sensor import SensorApp
from repro.core.roundplan import ExpectedMessage
from repro.core.suspicion import SuspicionSensor


def make_sensor(replica=0, delta=1.0):
    log = AppendOnlyLog()
    app = SensorApp(replica, propose=lambda record: log.append(record))
    sensor = SuspicionSensor(replica, app, delta=delta)
    return log, sensor


def expected(sender, msg_type="write", phase=2, d_m=0.1):
    return ExpectedMessage(sender=sender, msg_type=msg_type, phase=phase, d_m=d_m)


def plan(*messages, delta=1.0):
    return plan_from_expected(list(messages), delta)


def suspicions(log):
    return [entry.record for entry in log.entries_of_type(SuspicionRecord)]


# ----------------------------------------------------------------------
# Condition (b): missing / late messages
# ----------------------------------------------------------------------
def test_missing_message_raises_slow_after_deadline():
    log, sensor = make_sensor()
    sensor.begin_round(1, leader=5, proposal_timestamp=0.0, d_rnd=1.0,
                       plan=plan(expected(3)))
    raised = sensor.check_round(1, now=0.2)
    assert len(raised) == 1
    assert raised[0].suspect == 3
    assert raised[0].kind == SuspicionKind.SLOW


def test_on_time_message_prevents_suspicion():
    log, sensor = make_sensor()
    sensor.begin_round(1, leader=5, proposal_timestamp=0.0, d_rnd=1.0,
                       plan=plan(expected(3)))
    sensor.on_message(1, sender=3, msg_type="write", now=0.05)
    assert sensor.check_round(1, now=0.2) == []
    assert suspicions(log) == []


def test_late_arrival_still_raises_c2():
    """C2: a message past δ·d_m is suspected even if it arrives."""
    log, sensor = make_sensor()
    sensor.begin_round(1, leader=5, proposal_timestamp=0.0, d_rnd=1.0,
                       plan=plan(expected(3)))
    sensor.on_message(1, sender=3, msg_type="write", now=0.5)  # > 0.1
    raised = suspicions(log)
    assert len(raised) == 1
    assert raised[0].suspect == 3


def test_delta_scales_deadline():
    log, sensor = make_sensor(delta=2.0)
    sensor.begin_round(1, leader=5, proposal_timestamp=0.0, d_rnd=1.0,
                       plan=plan(expected(3, d_m=0.1), delta=2.0))
    sensor.on_message(1, sender=3, msg_type="write", now=0.15)  # within 2*0.1
    assert sensor.check_round(1, now=0.3) == []
    assert suspicions(log) == []


def test_check_round_idempotent():
    log, sensor = make_sensor()
    sensor.begin_round(1, leader=5, proposal_timestamp=0.0, d_rnd=1.0,
                       plan=plan(expected(3)))
    sensor.check_round(1, now=0.2)
    assert sensor.check_round(1, now=0.3) == []
    assert len(suspicions(log)) == 1


def test_causally_later_phase_not_raised():
    """One late write implies the accept is late too; only the earliest
    phase is suspected at the sensor."""
    log, sensor = make_sensor()
    sensor.begin_round(
        1,
        leader=5,
        proposal_timestamp=0.0,
        d_rnd=1.0,
        plan=plan(
            expected(3, msg_type="write", phase=2, d_m=0.1),
            expected(3, msg_type="accept", phase=3, d_m=0.2),
            expected(4, msg_type="accept", phase=3, d_m=0.2),
        ),
    )
    raised = sensor.check_round(1, now=1.0)
    assert [(r.suspect, r.msg_type) for r in raised] == [(3, "write")]


def test_one_slow_per_suspect_per_round():
    log, sensor = make_sensor()
    sensor.begin_round(1, leader=5, proposal_timestamp=0.0, d_rnd=1.0,
                       plan=plan(expected(3)))
    # Late arrival already raised the suspicion; the round check must not
    # duplicate it.
    sensor.on_message(1, sender=3, msg_type="write", now=0.5)
    sensor.check_round(1, now=1.0)
    assert len(suspicions(log)) == 1
    # A later round may report the same suspect again (timestamp gap kept
    # inside δ·d_rnd so condition (a) stays quiet).
    sensor.begin_round(2, leader=5, proposal_timestamp=0.5, d_rnd=1.0,
                       plan=plan(expected(3)))
    sensor.check_round(2, now=1.0)
    assert len(suspicions(log)) == 2
    assert all(s.suspect == 3 for s in suspicions(log))


# ----------------------------------------------------------------------
# Condition (a): proposal timestamps
# ----------------------------------------------------------------------
def test_delayed_proposal_timestamp_suspects_leader():
    log, sensor = make_sensor()
    sensor.begin_round(1, leader=5, proposal_timestamp=0.0, d_rnd=0.1, plan=plan())
    sensor.begin_round(2, leader=5, proposal_timestamp=0.5, d_rnd=0.1, plan=plan())
    raised = suspicions(log)
    assert len(raised) == 1
    assert raised[0].suspect == 5
    assert raised[0].msg_type == "proposal-timestamp"


def test_timely_proposal_timestamps_ok():
    log, sensor = make_sensor()
    sensor.begin_round(1, leader=5, proposal_timestamp=0.0, d_rnd=0.1, plan=plan())
    sensor.begin_round(2, leader=5, proposal_timestamp=0.09, d_rnd=0.1, plan=plan())
    assert suspicions(log) == []


def test_leader_change_resets_timestamp_check():
    log, sensor = make_sensor()
    sensor.begin_round(1, leader=5, proposal_timestamp=0.0, d_rnd=0.1, plan=plan())
    sensor.begin_round(2, leader=6, proposal_timestamp=5.0, d_rnd=0.1, plan=plan())
    assert suspicions(log) == []


# ----------------------------------------------------------------------
# Condition (c): reciprocation
# ----------------------------------------------------------------------
def test_reciprocates_suspicion_against_self():
    log, sensor = make_sensor(replica=3)
    incoming = SuspicionRecord(
        reporter=7, suspect=3, kind=SuspicionKind.SLOW, round_id=4
    )
    sensor.on_suspicion_logged(incoming)
    raised = suspicions(log)
    assert len(raised) == 1
    assert raised[0].kind == SuspicionKind.FALSE
    assert raised[0].suspect == 7
    assert raised[0].reporter == 3


def test_no_reciprocation_for_others_or_self_reports():
    log, sensor = make_sensor(replica=3)
    sensor.on_suspicion_logged(
        SuspicionRecord(reporter=7, suspect=8, kind=SuspicionKind.SLOW, round_id=4)
    )
    sensor.on_suspicion_logged(
        SuspicionRecord(reporter=3, suspect=9, kind=SuspicionKind.SLOW, round_id=4)
    )
    assert suspicions(log) == []


def test_reciprocation_deduplicated():
    log, sensor = make_sensor(replica=3)
    incoming = SuspicionRecord(
        reporter=7, suspect=3, kind=SuspicionKind.SLOW, round_id=4
    )
    sensor.on_suspicion_logged(incoming)
    sensor.on_suspicion_logged(incoming)
    assert len(suspicions(log)) == 1
