"""Tests for the ConfigSensor / ConfigMonitor (§4.2.4)."""

import math
import random

import pytest

from repro.core.config import ConfigMonitor, ConfigSensor
from repro.core.log import AppendOnlyLog
from repro.core.records import ConfigProposalRecord
from repro.core.sensor import SensorApp
from repro.aware.weights import WeightConfiguration

N, F = 7, 2


def config_with_leader(leader: int, avoid=()) -> WeightConfiguration:
    pool = sorted(set(range(N)) - {leader} - set(avoid))
    return WeightConfiguration(
        n=N, f=F, leader=leader, vmax_replicas=frozenset(pool[: 2 * F])
    )


def leader_score(configuration) -> float:
    # Toy deterministic score: prefer low leader ids.
    return 1.0 + configuration.leader


def make_monitor(candidates=None, u=0, on_reconfigure=None, improvement=0.9):
    log = AppendOnlyLog()
    state = {"candidates": frozenset(candidates or range(N)), "u": u}

    def provider():
        return state["candidates"], state["u"]

    monitor = ConfigMonitor(
        0,
        log,
        score=leader_score,
        validator=lambda config: isinstance(config, WeightConfiguration),
        candidate_provider=provider,
        f=F,
        on_reconfigure=on_reconfigure,
        improvement_factor=improvement,
    )
    return log, monitor, state


def install(monitor, configuration) -> None:
    """Adopt ``configuration`` as the current one without a log proposal."""
    monitor.current = configuration
    monitor.current_score = leader_score(configuration)


def proposal(leader: int, proposer: int = 0, claimed=None, avoid=()) -> ConfigProposalRecord:
    configuration = config_with_leader(leader, avoid=avoid)
    return ConfigProposalRecord(
        proposer=proposer,
        configuration=configuration,
        claimed_score=claimed if claimed is not None else leader_score(configuration),
    )


def test_first_proposal_activates_when_no_current():
    log, monitor, _ = make_monitor()
    log.append(proposal(leader=3))
    assert monitor.current is not None
    assert monitor.current.leader == 3
    assert monitor.reconfigurations[0].reason == "invalid-current"


def test_valid_current_requires_significant_improvement():
    log, monitor, _ = make_monitor(improvement=0.9)
    install(monitor, config_with_leader(3))  # score 4
    log.append(proposal(leader=2, proposer=1))  # score 3 < 0.9*4 -> activate
    assert monitor.current.leader == 2
    log.append(proposal(leader=2, proposer=2))
    # Score 3 vs current 3: not an improvement; stays.
    assert len(monitor.reconfigurations) == 1


def test_marginal_improvement_rejected():
    log, monitor, _ = make_monitor(improvement=0.5)
    install(monitor, config_with_leader(2))  # score 3
    log.append(proposal(leader=1, proposer=1))  # score 2 > 0.5*3
    assert monitor.current.leader == 2


def test_invalid_current_waits_for_f_plus_1_proposals():
    log, monitor, state = make_monitor()
    install(monitor, config_with_leader(3))
    state["candidates"] = frozenset(range(N)) - {3}  # leader now suspect
    assert not monitor.current_is_valid()
    log.append(proposal(leader=1, proposer=1, avoid={3}))
    log.append(proposal(leader=2, proposer=2, avoid={3}))
    assert len(monitor.reconfigurations) == 0  # only 2 < f+1 = 3
    log.append(proposal(leader=1, proposer=4, avoid={3}))
    assert len(monitor.reconfigurations) == 1
    assert monitor.current.leader == 1  # best score among pending


def test_claimed_score_is_ignored_scores_recomputed():
    """Accountability: a lying proposer cannot win with a fake score."""
    log, monitor, state = make_monitor()
    install(monitor, config_with_leader(6))
    state["candidates"] = frozenset(range(N)) - {6}
    log.append(proposal(leader=5, proposer=1, claimed=0.0001, avoid={6}))  # lie
    log.append(proposal(leader=1, proposer=2, avoid={6}))
    log.append(proposal(leader=4, proposer=3, avoid={6}))
    assert monitor.current.leader == 1  # true best, not the liar's


def test_proposals_with_non_candidate_roles_rejected():
    log, monitor, state = make_monitor(candidates=set(range(N)) - {5})
    log.append(proposal(leader=5, proposer=1))
    assert monitor.invalid_proposals == 1
    assert monitor.current is None


def test_stale_pending_revalidated_on_candidate_change():
    """A buffered proposal naming a later-suspected replica must not be
    reconfigured to (the OptiAware attack regression)."""
    log, monitor, state = make_monitor()
    install(monitor, config_with_leader(2))
    log.append(proposal(leader=2, proposer=1))  # same as current; buffered
    state["candidates"] = frozenset(range(N)) - {2}  # 2 becomes suspect
    monitor.recheck()
    assert len(monitor.reconfigurations) == 0  # stale proposal dropped
    assert not monitor._pending


def test_newer_proposal_replaces_same_proposer():
    log, monitor, state = make_monitor()
    install(monitor, config_with_leader(1))
    state["candidates"] = frozenset(range(N)) - {1}
    log.append(proposal(leader=6, proposer=2, avoid={1}))
    log.append(proposal(leader=2, proposer=2, avoid={1}))  # same proposer, better
    log.append(proposal(leader=5, proposer=3, avoid={1}))
    log.append(proposal(leader=6, proposer=4, avoid={1}))
    assert monitor.current.leader == 2


def test_on_reconfigure_callback_invoked():
    decisions = []
    log, monitor, _ = make_monitor(on_reconfigure=decisions.append)
    log.append(proposal(leader=2))
    assert len(decisions) == 1
    assert decisions[0].configuration.leader == 2


def test_sensor_proposes_best_found():
    log = AppendOnlyLog()
    app = SensorApp(0, propose=lambda record: log.append(record))

    def search(candidates, u, rng):
        return config_with_leader(min(candidates))

    sensor = ConfigSensor(
        0,
        app,
        search=search,
        score=leader_score,
        candidate_provider=lambda: (frozenset({2, 3, 4, 5, 6}), 0),
        rng=random.Random(0),
    )
    record = sensor.search_and_propose(view=7)
    assert record is not None
    assert record.configuration.leader == 2
    assert record.claimed_score == 3.0
    assert len(log) == 1


def test_sensor_skips_infeasible_results():
    app = SensorApp(0)
    sensor = ConfigSensor(
        0,
        app,
        search=lambda candidates, u, rng: None,
        score=lambda config: math.inf,
        candidate_provider=lambda: (frozenset(), 0),
    )
    assert sensor.search_and_propose() is None
    assert app.pending == 0
