"""Scenario runner tests: determinism, protocol x workload coverage,
fault scheduling, and equivalence with the pre-runner driver code."""

import random
from pathlib import Path

import numpy as np
import pytest

from repro.consensus.hotstuff import HotStuffCluster
from repro.experiments import fig9
from repro.experiments.runner import (
    FaultSpec,
    PROTOCOLS,
    Scenario,
    ScenarioResult,
    resolve_deployment,
    run_scenario,
)

GOLDEN_DIR = Path(__file__).parent / "data"


def small_scenario(**overrides):
    base = dict(
        protocol="pbft",
        deployment="wonderproxy-7",
        workload="bursty",
        workload_params={"on_rate": 60.0, "on_duration": 2.0, "off_duration": 2.0},
        duration=8.0,
        seed=0,
    )
    base.update(overrides)
    return Scenario(**base)


def test_scenario_json_is_bit_identical_across_runs():
    first = run_scenario(small_scenario()).to_json()
    second = run_scenario(small_scenario()).to_json()
    assert first == second
    assert '"protocol": "pbft"' in first


def test_no_fault_scenario_matches_pre_adversary_golden():
    """Determinism contract: a seeded run with ``faults=[]`` must stay
    bit-identical to the output recorded before the adversary subsystem
    existed (same ``derive_rng`` call order on the no-fault path).

    If this fails after an intentional behaviour change, regenerate with::

        PYTHONPATH=src python -c "
        from tests.experiments.test_runner import small_scenario
        from repro.experiments.runner import run_scenario
        print(run_scenario(small_scenario()).to_json(indent=2))" \
            > tests/experiments/data/golden_no_fault.json
    """
    golden = (GOLDEN_DIR / "golden_no_fault.json").read_text().rstrip("\n")
    assert run_scenario(small_scenario()).to_json(indent=2) == golden


def test_scenario_seed_changes_metrics():
    first = run_scenario(small_scenario(seed=0)).to_json()
    second = run_scenario(small_scenario(seed=1)).to_json()
    assert first != second


def test_wonderproxy_deployment_is_seeded_and_bounded():
    a = resolve_deployment("wonderproxy-16", seed=3)
    b = resolve_deployment("wonderproxy-16", seed=3)
    c = resolve_deployment("wonderproxy-16", seed=4)
    assert a.n == 16
    assert [city.name for city in a.cities] == [city.name for city in b.cities]
    assert [city.name for city in a.cities] != [city.name for city in c.cities]
    with pytest.raises(ValueError):
        resolve_deployment("wonderproxy-2")
    with pytest.raises(ValueError, match="unknown deployment"):
        resolve_deployment("atlantis9")
    # world-N is the same draw under its newer spelling: same cities and
    # bit-equal link latencies.
    world = resolve_deployment("world-16", seed=3)
    assert [city.name for city in world.cities] == [city.name for city in a.cities]
    assert np.array_equal(world.latency.matrix_seconds(), a.latency.matrix_seconds())
    with pytest.raises(ValueError):
        resolve_deployment("world-2")


def test_hotstuff_commits_client_requests():
    result = run_scenario(
        small_scenario(protocol="hotstuff-rr", workload="open-loop",
                       workload_params={"rate": 40.0}, duration=10.0)
    )
    metrics = result.metrics()
    assert metrics["client"]["requests_completed"] > 0
    assert metrics["committed_requests"] <= metrics["client"]["requests_sent"]


def test_kauri_serves_closed_loop_clients():
    result = run_scenario(
        small_scenario(protocol="kauri", workload="closed-loop",
                       workload_params={}, duration=10.0)
    )
    metrics = result.metrics()
    assert metrics["client"]["requests_completed"] > 0
    assert metrics["throughput_rps"] > 0


def test_optitree_skewed_scenario_runs():
    result = run_scenario(
        small_scenario(
            protocol="optitree",
            deployment="wonderproxy-10",
            workload="skewed",
            workload_params={"rate": 50.0, "clients": 4, "skew": 1.2},
            duration=6.0,
            search_iterations=500,
        )
    )
    assert result.metrics()["client"]["requests_completed"] > 0


def test_delay_fault_degrades_pbft_latency():
    quiet = run_scenario(small_scenario(workload="open-loop",
                                        workload_params={"rate": 20.0},
                                        duration=12.0))
    attacked = run_scenario(
        small_scenario(
            workload="open-loop",
            workload_params={"rate": 20.0},
            duration=12.0,
            faults=[FaultSpec(kind="delay", start=4.0, attacker="leader",
                              extra_delay=0.5)],
        )
    )
    assert (
        attacked.metrics()["client"]["mean_latency"]
        > quiet.metrics()["client"]["mean_latency"]
    )


def test_crash_fault_stops_fixed_leader_progress():
    healthy = run_scenario(
        small_scenario(protocol="hotstuff-fixed", workload="saturated",
                       workload_params={}, duration=10.0)
    )
    crashed = run_scenario(
        small_scenario(
            protocol="hotstuff-fixed",
            workload="saturated",
            workload_params={},
            duration=10.0,
            faults=[FaultSpec(kind="crash", start=3.0, attacker=0)],
        )
    )
    # Replica 0 is the seed-0 fixed leader; crashing it halts commits.
    assert crashed.metrics()["committed_blocks"] < healthy.metrics()["committed_blocks"]


def test_partition_halves_progress_until_heal():
    """Splitting off a super-minority must not stop commits; isolating
    the leader's majority side from too many voters must."""
    quiet = run_scenario(small_scenario(workload="open-loop",
                                        workload_params={"rate": 30.0},
                                        duration=10.0))
    # n=7, f=2: quorum 5.  Cutting 2 replicas off leaves 5 -- progress.
    minority_cut = run_scenario(
        small_scenario(
            workload="open-loop", workload_params={"rate": 30.0}, duration=10.0,
            faults=[FaultSpec(kind="partition", start=0.0,
                              params={"groups": ((5, 6), (0, 1, 2, 3, 4))})],
        )
    )
    # Cutting 3 off leaves 4 < 5 -- no commits at all.
    majority_cut = run_scenario(
        small_scenario(
            workload="open-loop", workload_params={"rate": 30.0}, duration=10.0,
            faults=[FaultSpec(kind="partition", start=0.0,
                              params={"groups": ((4, 5, 6), (0, 1, 2, 3))})],
        )
    )
    healed = run_scenario(
        small_scenario(
            workload="open-loop", workload_params={"rate": 30.0}, duration=10.0,
            faults=[FaultSpec(kind="partition", start=2.0, end=4.0,
                              params={"groups": ((4, 5, 6), (0, 1, 2, 3))})],
        )
    )
    assert minority_cut.metrics()["committed_blocks"] > 0
    assert majority_cut.metrics()["committed_blocks"] == 0
    assert (
        0
        < healed.metrics()["committed_blocks"]
        <= quiet.metrics()["committed_blocks"]
    )


def test_loss_fault_is_deterministic_and_counted():
    def run():
        return run_scenario(
            small_scenario(
                workload="open-loop", workload_params={"rate": 30.0}, duration=8.0,
                faults=[FaultSpec(kind="loss", start=1.0, end=6.0,
                                  params={"rate": 0.1})],
            )
        )

    first, second = run(), run()
    assert first.to_json() == second.to_json()
    activity = first.metrics()["fault_activity"][0]
    assert activity["kind"] == "loss"
    assert 0 < activity["messages_lost"] < activity["messages_seen"]


def test_crash_with_end_revives_and_recovers_progress():
    crashed_forever = run_scenario(
        small_scenario(protocol="hotstuff-fixed", workload="saturated",
                       workload_params={}, duration=10.0,
                       faults=[FaultSpec(kind="crash", start=3.0, attacker=0)])
    )
    revived = run_scenario(
        small_scenario(protocol="hotstuff-fixed", workload="saturated",
                       workload_params={}, duration=10.0,
                       faults=[FaultSpec(kind="crash", start=3.0, end=5.0,
                                         attacker=0)])
    )
    # Replica 0 is the seed-0 fixed leader; reviving it (with catch-up)
    # must restart commits that stay dead without the revival.
    assert (
        revived.metrics()["committed_blocks"]
        > crashed_forever.metrics()["committed_blocks"]
    )
    assert revived.metrics()["fault_activity"][0]["revived_at"] == 5.0


def test_churn_fault_cycles_and_keeps_cluster_live():
    result = run_scenario(
        small_scenario(
            protocol="hotstuff-rr", workload="open-loop",
            workload_params={"rate": 30.0}, duration=12.0,
            faults=[FaultSpec(kind="churn", start=2.0, end=10.0,
                              params={"period": 2.0, "downtime": 1.0})],
        )
    )
    activity = result.metrics()["fault_activity"][0]
    assert activity["crashes"] >= 3
    assert activity["revivals"] == activity["crashes"]
    assert result.metrics()["committed_blocks"] > 0


def test_kauri_leaf_revival_does_not_overshoot_commit_point():
    """Catch-up must copy the donor's *committed* height; under
    pipelining next_height-1 runs ahead of it, and marking those heights
    committed would strand their requests."""
    result = run_scenario(
        small_scenario(
            protocol="kauri", workload="closed-loop", workload_params={},
            duration=10.0,
            faults=[FaultSpec(kind="crash", start=3.0, end=5.0, attacker=5)],
        )
    )
    root = result.cluster.replicas[result.cluster.tree.root]
    revived = result.cluster.replicas[5]
    assert revived.committed_height <= root.committed_height
    assert result.metrics()["committed_blocks"] > 0
    assert result.metrics()["fault_activity"][0]["revived_at"] == 5.0


def test_loss_senders_param_is_validated_and_normalised():
    assert FaultSpec(kind="loss", params={"rate": 0.1, "senders": 3}).params[
        "senders"
    ] == (3,)
    assert FaultSpec(
        kind="loss", params={"rate": 0.1, "senders": [4, 2]}
    ).params["senders"] == (2, 4)
    with pytest.raises(ValueError, match="senders"):
        FaultSpec(kind="loss", params={"rate": 0.1, "senders": "leader"})


def test_false_suspicion_fault_degrades_candidate_set():
    from repro.experiments.runner import MeasurementPolicy

    result = run_scenario(
        Scenario(
            protocol="pbft-optiaware", deployment="wonderproxy-7",
            workload="closed-loop", duration=30.0, seed=0, delta=1.25,
            measurements=MeasurementPolicy(probe_at=2.0, publish_at=5.0,
                                           first_search_at=12.0,
                                           search_period=10.0),
            faults=[FaultSpec(kind="false_suspicion", start=15.0,
                              attacker=(5, 6), params={"period": 5.0})],
        )
    )
    assert result.metrics()["fault_activity"][0]["rounds_launched"] == 2
    monitor = result.cluster.replicas[0].optilog.pipeline.suspicion_monitor
    # The fabricated suspicions and their reciprocations put edges in G:
    # the smeared correct replica (or an attacker) left K.
    assert monitor.graph.edge_count()
    assert len(monitor.K) < 7


def test_false_suspicion_requires_optilog_cluster():
    with pytest.raises(ValueError, match="pbft-aware"):
        run_scenario(
            small_scenario(protocol="hotstuff-rr", workload="saturated",
                           workload_params={},
                           faults=[FaultSpec(kind="false_suspicion",
                                             attacker=(5,))])
        )


def test_fault_spec_validation_is_loud():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec(kind="meteor")
    with pytest.raises(ValueError, match="unknown param"):
        FaultSpec(kind="loss", params={"rte": 0.1})
    with pytest.raises(ValueError, match="rate"):
        FaultSpec(kind="loss", params={"rate": 1.5})
    with pytest.raises(ValueError, match="exactly one"):
        FaultSpec(kind="partition")
    with pytest.raises(ValueError, match="exactly one"):
        FaultSpec(kind="partition",
                  params={"groups": ((0,), (1,)), "isolate": 2})
    with pytest.raises(ValueError, match="precedes"):
        FaultSpec(kind="delay", start=10.0, end=5.0)
    with pytest.raises(ValueError, match="attacker replica ids"):
        FaultSpec(kind="false_suspicion", attacker="leader")
    with pytest.raises(ValueError, match="period"):
        FaultSpec(kind="churn", params={"period": -1.0})
    with pytest.raises(ValueError, match="delta"):
        FaultSpec(kind="delta_delay", params={"delta": 0.0})


def test_cli_fault_parsing_routes_params_and_nested_groups():
    from repro.__main__ import _parse_fault

    spec = _parse_fault("partition:groups=((0,1,2),(3,4,5,6)),start=10,end=20")
    assert spec.kind == "partition"
    assert spec.params["groups"] == ((0, 1, 2), (3, 4, 5, 6))
    assert (spec.start, spec.end) == (10, 20)

    spec = _parse_fault("delay:start=60,attacker=leader,extra_delay=0.8,"
                        "message_types=(PrePrepare,Prepare)")
    assert spec.attacker == "leader"
    assert spec.message_types == ("PrePrepare", "Prepare")

    spec = _parse_fault("false_suspicion:attacker=(5,6),target=leader,period=5")
    assert spec.attacker == (5, 6)
    assert spec.params == {"target": "leader", "period": 5}

    with pytest.raises(SystemExit, match="unknown param"):
        _parse_fault("loss:rte=0.1")


def test_named_adversarial_scenarios_registered_and_runnable():
    from repro.experiments.scenarios import (
        ADVERSARIAL_SCENARIOS,
        make_scenario,
        run_named,
    )

    expected = {"partition-heal", "churn-storm", "stealth-delta",
                "lossy-wan", "smear-campaign"}
    assert expected <= set(ADVERSARIAL_SCENARIOS)
    for name in expected:
        scenario = make_scenario(name, seed=1)
        assert scenario.name == name
        assert scenario.faults
    with pytest.raises(ValueError, match="unknown scenario"):
        make_scenario("meteor-strike")
    # One end-to-end spot check at CI scale.
    result = run_named("partition-heal", seed=0, duration=9.0)
    assert result.metrics()["committed_blocks"] > 0
    assert result.metrics()["fault_activity"][0]["kind"] == "partition"


def test_invalid_combinations_are_rejected():
    with pytest.raises(ValueError, match="unknown protocol"):
        run_scenario(small_scenario(protocol="paxos"))
    with pytest.raises(ValueError, match="client-driven"):
        run_scenario(small_scenario(workload="saturated", workload_params={}))
    with pytest.raises(ValueError, match="unknown workload"):
        run_scenario(small_scenario(workload="tsunami"))
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec(kind="meteor")


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "field, value",
    [
        ("duration", NAN), ("duration", INF), ("duration", 0.0), ("duration", -1.0),
        ("jitter", -0.5), ("jitter", -2.0), ("jitter", NAN), ("jitter", INF),
        ("delta", NAN), ("delta", -1.0), ("delta", 0.0), ("delta", INF),
        ("pipeline_depth", 0), ("pipeline_depth", -1),
        ("search_iterations", -1),
    ],
)
def test_out_of_range_values_fail_at_construction(field, value):
    # Each of these used to hang (a NaN duration never ends a run), run
    # empty (duration <= 0, pipeline_depth < 1) or be silently ignored
    # (negative or NaN jitter, a NaN delta that switches deadlines off).
    with pytest.raises(ValueError, match=field):
        Scenario(**{field: value})


def test_runner_matches_pre_refactor_hotstuff_construction():
    """The fig9 HotStuff-fixed cell through the runner must equal the
    original direct construction (the pre-runner driver code)."""
    duration, seed = 3.0, 1
    deployment = resolve_deployment("Europe21")
    leader = random.Random(seed).randrange(deployment.n)
    cluster = HotStuffCluster(
        deployment, leader_mode="fixed", fixed_leader=leader, seed=seed
    )
    expected = cluster.run(duration)
    cell = fig9.run_cell("Europe21", "HotStuff-fixed", duration=duration, seed=seed)
    assert cell.throughput == expected.throughput(duration)
    assert cell.latency == expected.mean_latency()


def test_every_protocol_is_buildable():
    for protocol in PROTOCOLS:
        workload = "saturated" if not protocol.startswith("pbft") else "closed-loop"
        result = run_scenario(
            small_scenario(protocol=protocol, workload=workload,
                           workload_params={}, duration=2.0,
                           search_iterations=200)
        )
        assert isinstance(result, ScenarioResult)
        assert result.run_metrics is not None


def test_fault_spec_accepts_bare_message_type_string():
    spec = FaultSpec(kind="delay", message_types="PrePrepare")
    assert spec.message_types == ("PrePrepare",)
    spec = FaultSpec(kind="delay", message_types=["Prepare", "Commit"])
    assert spec.message_types == ("Prepare", "Commit")


def test_workload_instance_can_be_rerun():
    """Rebinding the same Workload instance (Scenario reuse) must reset
    clients and metrics instead of accumulating across runs."""
    from repro.workloads import ClosedLoopWorkload

    workload = ClosedLoopWorkload()
    first = run_scenario(
        small_scenario(workload=workload, workload_params={}, duration=4.0)
    )
    first_completed = first.metrics()["client"]["requests_completed"]
    second = run_scenario(
        small_scenario(workload=workload, workload_params={}, duration=4.0)
    )
    assert len(workload.clients) == 1
    assert second.metrics()["client"]["requests_completed"] == first_completed
    assert first.to_json() == second.to_json()


def test_workload_params_rejected_for_instances():
    from repro.workloads import OpenLoopWorkload

    with pytest.raises(ValueError, match="workload_params only apply"):
        run_scenario(
            small_scenario(
                workload=OpenLoopWorkload(rate=10.0),
                workload_params={"rate": 200.0},
                duration=2.0,
            )
        )


def test_delay_fault_rejects_unknown_message_types():
    with pytest.raises(ValueError, match="unknown message type"):
        FaultSpec(kind="delay", message_types="PrePrepar")  # typo
    with pytest.raises(ValueError, match="unknown message type"):
        FaultSpec(kind="delay", message_types="(PrePrepare")  # malformed
    FaultSpec(kind="delay", message_types=("PrePrepare", "Prepare"))  # valid


# ---------------------------------------------------------------------------
# Fault composition validation (cross-spec invariants)
# ---------------------------------------------------------------------------


def test_negative_fault_start_rejected():
    with pytest.raises(ValueError, match="negative"):
        FaultSpec(kind="crash", start=-1.0, end=5.0, attacker=2)


def test_overlapping_crash_windows_on_one_replica_rejected():
    with pytest.raises(ValueError, match="overlapping.*crash"):
        Scenario(
            faults=[
                FaultSpec(kind="crash", start=1.0, end=5.0, attacker=2),
                FaultSpec(kind="crash", start=4.0, end=8.0, attacker=2),
            ]
        )


def test_disjoint_crash_windows_and_distinct_victims_allowed():
    Scenario(
        faults=[
            FaultSpec(kind="crash", start=1.0, end=3.0, attacker=2),
            FaultSpec(kind="crash", start=4.0, end=8.0, attacker=2),
            FaultSpec(kind="crash", start=2.0, end=6.0, attacker=3),
        ]
    )


def test_revival_inside_partition_rejected():
    with pytest.raises(ValueError, match="revives.*inside the partition"):
        Scenario(
            faults=[
                FaultSpec(
                    kind="partition",
                    start=0.0,
                    end=10.0,
                    params={"isolate": 2},
                ),
                FaultSpec(kind="crash", start=1.0, end=5.0, attacker=2),
            ]
        )


def test_revival_at_partition_heal_or_after_allowed():
    # Revival exactly at the heal instant (or later) is legal; only a
    # revival strictly inside the split is ambiguous.
    Scenario(
        faults=[
            FaultSpec(kind="partition", start=0.0, end=10.0, params={"isolate": 2}),
            FaultSpec(kind="crash", start=1.0, end=10.0, attacker=2),
        ]
    )
    Scenario(
        faults=[
            FaultSpec(kind="partition", start=0.0, end=4.0, params={"isolate": 2}),
            FaultSpec(kind="crash", start=5.0, end=8.0, attacker=2),
        ]
    )


# ----------------------------------------------------------------------
# delta inside the jitter band
# ----------------------------------------------------------------------
def test_optiaware_delta_inside_jitter_band_warns():
    import warnings

    from repro.experiments.runner import prepare_scenario

    stormy = Scenario(protocol="pbft-optiaware", deployment="wonderproxy-7")
    assert stormy.delta < 1.0 + stormy.jitter  # the defaults are the hazard
    with pytest.warns(RuntimeWarning, match=r"delta=1\.0 is below 1 \+ jitter"):
        prepare_scenario(stormy)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # At the band's edge, with jitter off, or with no suspicion
        # sensor in the loop there is nothing to warn about.
        prepare_scenario(Scenario(protocol="pbft-optiaware",
                                  deployment="wonderproxy-7", delta=1.02))
        prepare_scenario(Scenario(protocol="pbft-optiaware",
                                  deployment="wonderproxy-7", jitter=0.0))
        prepare_scenario(Scenario(protocol="pbft-aware",
                                  deployment="wonderproxy-7"))


@pytest.mark.parametrize("protocol", ["pbft", "hotstuff-rr", "kauri"])
@pytest.mark.parametrize("city", [-1, 21, 25])
def test_client_city_outside_the_deployment_is_rejected(protocol, city):
    # The router used to wrap it (25 -> 4 on Europe21) and run from
    # another city with no error.
    scenario = Scenario(
        protocol=protocol, deployment="Europe21", duration=1.0, client_city=city
    )
    with pytest.raises(ValueError, match=rf"client_city .*\[0, 21\).*{city}"):
        run_scenario(scenario)
