"""Round plans: equivalence with per-round derivation, and invalidation.

The plan-driven sensor must be indistinguishable from the sensor that
derived every ``ExpectedMessage`` and every deadline per round (kept in
``tests/oracles.py``): same ``SuspicionRecord`` sequence, same round
horizon, bit for bit.  And the memo that makes it cheap must invalidate
exactly when the log changes what it was compiled from, and never ride
in a checkpoint.
"""

import math
import pickle
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    PerRoundSuspicionSensor,
    expected_messages_per_round,
    plan_from_expected,
)
from repro.aware.optiaware import OptiAware
from repro.aware.weights import WeightConfiguration, WheatParameters
from repro.core.latency import LatencyMonitor
from repro.core.log import AppendOnlyLog
from repro.core.records import UNREACHABLE, LatencyVectorRecord, SuspicionRecord
from repro.core.sensor import SensorApp
from repro.core.suspicion import SuspicionSensor
from repro.core.timeouts import PbftTimeouts


# ----------------------------------------------------------------------
# (a) plan-driven sensor == per-round oracle
# ----------------------------------------------------------------------
@st.composite
def rounds(draw):
    """A latency matrix, a weight configuration, a receiver and a message
    arrival schedule with late, missing and reordered messages."""
    n = draw(st.integers(min_value=4, max_value=13))
    f = (n - 1) // 3
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    latency = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            latency[a, b] = latency[b, a] = rng.uniform(0.001, 0.2)
    configuration = WeightConfiguration(
        n=n,
        f=f,
        leader=rng.randrange(n),
        vmax_replicas=frozenset(rng.sample(range(n), WheatParameters(n, f).vmax_count)),
    )
    receiver = rng.randrange(n)
    delta = rng.choice([1.0, 1.02, 1.25, 2.0])
    timeouts = PbftTimeouts(
        latency,
        leader=configuration.leader,
        weights=configuration.weights(),
        quorum_weight=configuration.quorum_weight,
    )
    expected = expected_messages_per_round(timeouts, receiver)
    timestamp = rng.uniform(0.0, 5.0)
    arrivals = []
    for message in expected:
        fate = rng.random()
        if fate < 0.15:
            continue  # never arrives
        stretch = rng.uniform(1.0, 1.6) if fate < 0.45 else rng.uniform(0.8, 1.0)
        if rng.random() < 0.1:
            stretch = delta  # exactly on the deadline
        arrivals.append(
            (timestamp + stretch * message.d_m, message.sender, message.msg_type)
        )
    # A message nobody expects, and one from an unknown kind.
    arrivals.append((timestamp + 0.01, receiver, "write"))
    arrivals.append((timestamp + 0.01, 0, "checkpoint"))
    rng.shuffle(arrivals)
    arrivals.sort(key=lambda arrival: arrival[0])
    check_at = timestamp + rng.uniform(0.0, 2.0) * delta * max(m.d_m for m in expected)
    return timeouts, receiver, delta, timestamp, arrivals, check_at


def _drive(sensor, log, expected, leader, timestamp, arrivals, check_at):
    sensor.begin_round(7, leader, timestamp, math.inf, expected, view=2)
    horizon = sensor.round_horizon(7)
    checked = False
    for now, sender, msg_type in arrivals:
        if not checked and now > check_at:
            sensor.check_round(7, check_at, view=2)
            checked = True
        sensor.on_message(7, sender, msg_type, now)
    sensor.check_round(7, max(check_at, arrivals[-1][0]), view=2)
    records = [entry.record for entry in log.entries_of_type(SuspicionRecord)]
    return horizon, records


@given(rounds())
@settings(max_examples=150, deadline=None)
def test_plan_sensor_matches_per_round_oracle(case):
    timeouts, receiver, delta, timestamp, arrivals, check_at = case
    outcomes = []
    for sensor_cls, expected in (
        (SuspicionSensor, timeouts.round_plan(receiver, delta)),
        (PerRoundSuspicionSensor, expected_messages_per_round(timeouts, receiver)),
    ):
        log = AppendOnlyLog()
        app = SensorApp(receiver, propose=log.append)
        sensor = sensor_cls(receiver, app, delta=delta)
        outcomes.append(
            _drive(sensor, log, expected, timeouts.leader, timestamp, arrivals, check_at)
        )
    assert outcomes[0] == outcomes[1]


@given(rounds())
@settings(max_examples=50, deadline=None)
def test_compiled_d_m_bit_equal_scalar_accessors(case):
    timeouts, receiver, delta = case[:3]
    plan = timeouts.round_plan(receiver, delta)
    oracle = {
        (m.sender, m.msg_type): m for m in expected_messages_per_round(timeouts, receiver)
    }
    view = {(m.sender, m.msg_type): m for m in plan.expected_messages()}
    assert view == oracle
    for (sender, msg_type), message in oracle.items():
        slot = plan.kind_base[msg_type] + sender
        assert plan.offsets[slot] == delta * message.d_m
    assert plan.horizon_offset == delta * max(m.d_m for m in oracle.values())
    # The message-by-message compiler the tests use agrees.
    generic = plan_from_expected(list(oracle.values()), delta)
    assert generic.expected_messages() == plan.expected_messages()
    assert generic.horizon_offset == plan.horizon_offset


# ----------------------------------------------------------------------
# (b) memo invalidation
# ----------------------------------------------------------------------
def _stack(links, replica=1):
    n = links.shape[0]
    stack = OptiAware(replica, n, (n - 1) // 3)
    for sender in range(n):
        stack.pipeline.log.append(
            LatencyVectorRecord(sender=sender, vector=tuple(links[sender]))
        )
    return stack


def test_no_plan_until_matrix_complete(europe21_links):
    n = europe21_links.shape[0]
    stack = OptiAware(1, n, (n - 1) // 3)
    config = stack.default_configuration()
    assert stack.round_plan(config) is None
    for sender in range(n - 2):
        stack.pipeline.log.append(
            LatencyVectorRecord(sender=sender, vector=tuple(europe21_links[sender]))
        )
    assert stack.round_plan(config) is None  # pair (n-2, n-1) unmeasured
    stack.pipeline.log.append(
        LatencyVectorRecord(sender=n - 2, vector=tuple(europe21_links[n - 2]))
    )
    assert stack.round_plan(config) is not None


def test_plan_reused_until_log_changes_it(europe21_links):
    stack = _stack(europe21_links)
    config = stack.default_configuration()
    plan = stack.round_plan(config)
    assert stack.round_plan(config) is plan
    # An equal configuration object is the same configuration.
    twin = WeightConfiguration(
        n=config.n, f=config.f, leader=config.leader,
        vmax_replicas=frozenset(config.vmax_replicas),
    )
    assert stack.round_plan(twin) is plan


def test_new_latency_vector_invalidates(europe21_links):
    stack = _stack(europe21_links)
    config = stack.default_configuration()
    before = stack.round_plan(config)
    slower = tuple(2.0 * value for value in europe21_links[3])
    stack.pipeline.log.append(LatencyVectorRecord(sender=3, vector=slower))
    after = stack.round_plan(config)
    assert after is not before
    assert after.d_m != before.d_m
    fresh = stack.timeouts_for(config).round_plan(1, stack.pipeline.settings.delta)
    assert after.d_m == fresh.d_m and after.offsets == fresh.offsets


def test_reconfiguration_invalidates(europe21_links):
    stack = _stack(europe21_links)
    config = stack.default_configuration()
    before = stack.round_plan(config)
    moved = WeightConfiguration(
        n=config.n, f=config.f, leader=5, vmax_replicas=config.vmax_replicas
    )
    after = stack.round_plan(moved)
    assert after is not before
    assert after.offsets[after.kind_base["propose"] + 5] is not None
    assert stack.round_plan(config) is not after  # and back again


def test_memo_is_not_pickled(europe21_links):
    stack = _stack(europe21_links)
    config = stack.default_configuration()
    plan = stack.round_plan(config)
    restored = pickle.loads(pickle.dumps(stack))
    assert restored.pipeline._plan_memo is None
    rebuilt = restored.round_plan(config)
    assert rebuilt is not plan
    assert rebuilt.d_m == plan.d_m and rebuilt.offsets == plan.offsets
    assert stack.round_plan(config) is plan  # the live memo was untouched


# ----------------------------------------------------------------------
# O(1) completeness
# ----------------------------------------------------------------------
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=80, deadline=None)
def test_incremental_completeness_matches_scan(n, seed):
    rng = random.Random(seed)
    log = AppendOnlyLog()
    monitor = LatencyMonitor(0, log, n)
    for step in range(3 * n):
        sender = rng.randrange(n)
        vector = tuple(
            0.0 if peer == sender
            else rng.choice([UNREACHABLE, -1.0, rng.uniform(0.001, 0.3)])
            for peer in range(n)
        )
        log.append(LatencyVectorRecord(sender=sender, vector=vector))
        assert monitor.epoch == step + 1
        scan = all(
            not math.isinf(monitor.matrix[a, b])
            for a in range(n) for b in range(a + 1, n)
        )
        assert monitor.is_complete() == scan
