"""Tests for the OptiAware integration (§5)."""

import math

from repro.aware.optiaware import OptiAware
from repro.core.records import SuspicionKind, SuspicionRecord


def feed_latency(stack: OptiAware, links) -> None:
    from repro.core.records import LatencyVectorRecord

    n = stack.n
    for sender in range(n):
        vector = tuple(float(links[sender, peer]) for peer in range(n))
        stack.pipeline.log.append(LatencyVectorRecord(sender=sender, vector=vector))


def test_search_and_reconfigure_flow(europe21_links):
    stack = OptiAware(0, 21, 6)
    feed_latency(stack, europe21_links)
    record = stack.pipeline.config_sensor.search_and_propose()
    assert record is not None
    stack.pipeline.log.append(record)
    assert stack.current_configuration is not None
    assert stack.current_configuration == record.configuration


def test_suspected_leader_excluded_from_search(europe21_links):
    stack = OptiAware(0, 21, 6)
    feed_latency(stack, europe21_links)
    first = stack.pipeline.config_sensor.search_and_propose()
    stack.pipeline.log.append(first)
    leader = stack.current_configuration.leader
    # Distinct rounds so every suspicion is retained (first-per-round).
    for round_id, reporter in enumerate(r for r in range(21) if r != leader):
        stack.pipeline.log.append(
            SuspicionRecord(
                reporter=reporter, suspect=leader, kind=SuspicionKind.SLOW,
                round_id=round_id,
            )
        )
    assert leader not in stack.candidates
    replacement = stack.pipeline.config_sensor.search_and_propose()
    assert replacement.configuration.leader != leader
    assert leader not in replacement.configuration.special_replicas()


def test_plain_aware_ignores_suspicions(europe21_links):
    stack = OptiAware(0, 21, 6, use_suspicions=False)
    feed_latency(stack, europe21_links)
    first = stack.pipeline.config_sensor.search_and_propose()
    stack.pipeline.log.append(first)
    leader = stack.current_configuration.leader
    for round_id, reporter in enumerate(r for r in range(21) if r != leader):
        stack.pipeline.log.append(
            SuspicionRecord(
                reporter=reporter, suspect=leader, kind=SuspicionKind.SLOW,
                round_id=round_id,
            )
        )
    # Aware's search pool is all replicas: the attacker can stay leader.
    replacement = stack.pipeline.config_sensor.search_and_propose()
    assert replacement.configuration.leader == leader


def test_round_plan_and_round_duration(europe21_links):
    stack = OptiAware(1, 21, 6)
    feed_latency(stack, europe21_links)
    config = stack.default_configuration()
    expected = stack.round_plan(config).expected_messages()
    d_rnd = stack.timeouts_for(config).round_duration()
    assert 0 < d_rnd < math.inf
    # The quorum-based d_rnd ignores the slowest stragglers, so it sits
    # between the propose delay and the slowest accept delay.
    propose_dm = min(m.d_m for m in expected if m.msg_type == "propose")
    slowest_accept = max(m.d_m for m in expected if m.msg_type == "accept")
    assert propose_dm <= d_rnd <= slowest_accept + 1e-9
    senders = {m.sender for m in expected}
    assert 1 not in senders  # own messages never expected


def test_score_rejects_foreign_configuration_type(europe21_links):
    from repro.tree.topology import TreeConfiguration

    stack = OptiAware(0, 21, 6)
    feed_latency(stack, europe21_links)
    tree = TreeConfiguration.from_layout(range(21))
    assert stack._score(tree) == math.inf
    assert not stack._validate(tree)
