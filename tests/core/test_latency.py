"""Tests for the latency sensor and monitor (§4.2.1)."""

import math

from repro.core.latency import LatencyMonitor, LatencySensor, probe_all_peers
from repro.core.log import AppendOnlyLog
from repro.core.records import UNREACHABLE, LatencyVectorRecord
from repro.core.sensor import SensorApp


def make_pair(n=4, replica=0):
    log = AppendOnlyLog()
    app = SensorApp(replica, propose=lambda record: log.append(record))
    sensor = LatencySensor(replica, n, app)
    monitor = LatencyMonitor(replica, log, n)
    return log, sensor, monitor


def test_vector_marks_unmeasured_as_unreachable():
    _, sensor, _ = make_pair()
    sensor.observe_rtt(1, 0.020)
    vector = sensor.compile_vector()
    assert vector.vector[1] == 0.010  # RTT halved to link latency
    assert vector.vector[2] == UNREACHABLE
    assert vector.vector[0] == 0.0  # self


def test_monitor_builds_symmetric_matrix():
    log, sensor, monitor = make_pair()
    sensor.observe_rtt(1, 0.020)
    sensor.measure_and_record()
    assert monitor.latency(0, 1) == 0.010
    assert monitor.latency(1, 0) == 0.010


def test_symmetry_takes_max_of_directions():
    log, _, monitor = make_pair()
    log.append(LatencyVectorRecord(sender=0, vector=(0.0, 0.010, UNREACHABLE, UNREACHABLE)))
    log.append(LatencyVectorRecord(sender=1, vector=(0.030, 0.0, UNREACHABLE, UNREACHABLE)))
    assert monitor.latency(0, 1) == 0.030  # max(0.010, 0.030)


def test_unreachable_overrides_when_maximal():
    log, _, monitor = make_pair()
    log.append(LatencyVectorRecord(sender=0, vector=(0.0, 0.010, UNREACHABLE, UNREACHABLE)))
    log.append(
        LatencyVectorRecord(sender=1, vector=(UNREACHABLE, 0.0, UNREACHABLE, UNREACHABLE))
    )
    # One side says unreachable: max() keeps ∞, the conservative choice.
    assert math.isinf(monitor.latency(0, 1))


def test_malformed_rows_ignored():
    log, _, monitor = make_pair()
    log.append(LatencyVectorRecord(sender=9, vector=(0.0, 0.1, 0.1, 0.1)))  # bad id
    log.append(LatencyVectorRecord(sender=0, vector=(0.0, 0.1)))  # bad length
    assert monitor.vectors_seen == 0


def test_negative_latencies_skipped():
    log, _, monitor = make_pair()
    log.append(LatencyVectorRecord(sender=0, vector=(0.0, -5.0, 0.02, 0.02)))
    assert math.isinf(monitor.latency(0, 1))
    assert monitor.latency(0, 2) == 0.02


def test_is_complete_requires_all_pairs():
    log, _, monitor = make_pair(n=3)
    assert not monitor.is_complete()
    for sender in range(3):
        vector = tuple(0.0 if i == sender else 0.01 for i in range(3))
        log.append(LatencyVectorRecord(sender=sender, vector=vector))
    assert monitor.is_complete()


def test_probe_all_peers_marks_unresponsive():
    _, sensor, monitor = make_pair()
    probe_all_peers(
        sensor,
        rtt_provider=lambda a, b: 0.02,
        responsive=lambda peer: peer != 2,
    )
    vector = sensor.compile_vector()
    assert vector.vector[2] == UNREACHABLE
    assert vector.vector[1] == 0.01


def test_two_monitors_same_log_are_identical():
    log = AppendOnlyLog()
    monitor_a = LatencyMonitor(0, log, 3)
    monitor_b = LatencyMonitor(1, log, 3)
    log.append(LatencyVectorRecord(sender=0, vector=(0.0, 0.01, 0.03)))
    log.append(LatencyVectorRecord(sender=1, vector=(0.02, 0.0, UNREACHABLE)))
    assert (monitor_a.matrix == monitor_b.matrix).all()
