"""Engines hold O(in-flight) state, and retiring it is invisible.

Kauri/OptiTree and HotStuff delete every per-height entry in the handler
that makes it unreadable (``docs/ARCHITECTURE.md``, "State lifetime"),
in every run -- not at campaign slice boundaries only; PBFT does the same
for its vote accumulators (the last section).  Two claims:

* **The bound.**  A run four times as long holds the same number of
  per-height entries (``qc_heights`` aside, which only ``compact()``
  floors), with no ``compact()`` call anywhere, and the write-only
  ``blocks`` store is gone.
* **The invisibility.**  Retirement races timeouts, late votes, crashes,
  catch-up and tree changes; under each, the run ends in the same
  ``state_trace_hash`` and takes the same road (``DeliveryOrderRecorder``
  digest) as it did when every entry lived for the whole run.  The
  literals below were recorded on the parent commit -- engines that
  never deleted anything -- *before* the engines were changed, so they
  pin this change against the old behaviour, not against itself.
"""

import random

import pytest

from oracles import DeliveryOrderRecorder, per_height_entries
from repro.experiments.runner import (
    FaultSpec,
    MeasurementPolicy,
    Scenario,
    prepare_scenario,
)
from repro.experiments.scenarios import make_scenario
from state_trace import state_trace_hash
from repro.tree.kauri_reconfig import KauriReconfigurer

_CHAINED = ["kauri", "optitree", "hotstuff-rr", "hotstuff-fixed"]


def _saturated(protocol, duration):
    return Scenario(
        protocol=protocol,
        deployment="Europe21",
        workload="saturated",
        duration=duration,
        seed=2,
        search_iterations=500,
    )


@pytest.mark.parametrize("protocol", _CHAINED)
def test_live_entries_do_not_grow_with_run_length(protocol):
    entries = {}
    for duration in (10.0, 40.0):
        cluster = prepare_scenario(_saturated(protocol, duration)).cluster
        metrics = cluster.run(duration)  # no compact() anywhere
        entries[duration] = per_height_entries(cluster, exclude=("qc_heights",))
        assert not any(hasattr(replica, "blocks") for replica in cluster.replicas)
    assert len(metrics.commits) > 400  # the long run really is long
    # A height is live from proposal to commit: the root's pipeline plus
    # the 3-chain, on every replica.
    depth = getattr(getattr(cluster, "root_replica", None), "pipeline_depth", 1)
    slack = (depth + 3) * cluster.n
    assert 0 < entries[10.0] <= slack, entries
    assert abs(entries[40.0] - entries[10.0]) <= slack, entries


# ----------------------------------------------------------------------
# Invisibility under faults
# ----------------------------------------------------------------------
_KAURI_SEED = 4


def _kauri_tree():
    # The tree ``protocol="kauri"`` builds for Europe21 at _KAURI_SEED.
    return KauriReconfigurer(21, rng=random.Random(_KAURI_SEED)).tree_for_bin(0)


def _prepared(scenario, block_fanout):
    result = prepare_scenario(scenario)
    result.cluster.network.block_fanout = block_fanout
    return result


def _kauri(block_fanout, workload, faults=(), **params):
    return _prepared(
        Scenario(
            protocol="kauri",
            deployment="Europe21",
            workload=workload,
            workload_params=params,
            duration=5.0,
            seed=_KAURI_SEED,
            faults=list(faults),
        ),
        block_fanout,
    )


def _stealth_delta(block_fanout):
    return _prepared(
        make_scenario("stealth-delta", seed=3, duration=6.0), block_fanout
    )


def _churn_storm(block_fanout):
    # HotStuff under churn: every revival runs the catch-up donor copy.
    # (Seed and duration picked so the chain, which has no pacemaker,
    # survives every cycle and commits to the end of the run.)
    return _prepared(
        make_scenario("churn-storm", seed=1, duration=4.0), block_fanout
    )


def _follower_crash(block_fanout):
    # Fixed leader (replica 7 at seed 4) stays up, so the chain keeps
    # going: the revived follower commits its first heights out of the
    # uncommitted suffix it copied from the donor.
    crash = FaultSpec(kind="crash", start=1.0, end=2.5, attacker=11)
    return _prepared(
        Scenario(
            protocol="hotstuff-fixed",
            deployment="Europe21",
            workload="open-loop",
            workload_params=dict(rate=150.0, clients=2),
            duration=4.0,
            seed=4,
            faults=[crash],
        ),
        block_fanout,
    )


def _pbft_follower_crash(block_fanout):
    # OptiAware's state transfer: the revived follower adopts the donor's
    # configuration and sequence numbers and replays the ~1,300 committed
    # log records (suspicions of itself among them) it slept through.
    crash = FaultSpec(kind="crash", start=1.0, end=2.5, attacker=11)
    return _prepared(
        Scenario(
            protocol="pbft-optiaware",
            deployment="Europe21",
            workload="open-loop",
            workload_params=dict(rate=100.0, clients=2),
            duration=4.0,
            seed=4,
            delta=1.25,
            measurements=MeasurementPolicy(
                probe_at=0.2, publish_at=0.6, first_search_at=1.5, search_period=2.0
            ),
            faults=[crash],
        ),
        block_fanout,
    )


def _leaf_crash(block_fanout):
    # The parent's aggregation timer, not the last vote, flushes while
    # the leaf is down; the leaf rejoins through catch-up.
    tree = _kauri_tree()
    leaf = tree.children[tree.intermediates[0]][0]
    assert leaf not in tree.intermediates and leaf != tree.root
    crash = FaultSpec(kind="crash", start=1.0, end=3.0, attacker=leaf)
    return _kauri(block_fanout, "saturated", [crash])


def _intermediate_crash(block_fanout):
    # A whole subtree goes silent, request-driven: the root certifies on
    # the remaining aggregates and the late ones find the height retired.
    crash = FaultSpec(
        kind="crash", start=1.0, end=3.0, attacker=_kauri_tree().intermediates[1]
    )
    return _kauri(block_fanout, "open-loop", [crash], rate=150.0, clients=2)


def _tree_change(block_fanout):
    # The old root's uncommitted blocks are read back for request
    # recovery.
    result = _kauri(block_fanout, "open-loop", rate=150.0, clients=2)
    cluster = result.cluster
    new_tree = KauriReconfigurer(21, rng=random.Random(9)).tree_for_bin(1)
    assert new_tree.root != cluster.tree.root
    cluster.sim.schedule_at(2.0, cluster.install_tree, new_tree)
    return result


#: case -> (builder, state_trace_hash, delivery digest), both recorded on
#: the parent commit (see the module docstring).
_RECORDED = {
    "stealth-delta": (
        _stealth_delta,
        "897b63f620d532a81d878b62c0b768e5ce1d5b6409699ce465c846d98ab70073",
        "f1621a438aa23c13433a183077726c3ea333b847a9fcf10da3e84ebf515a231b",
    ),
    "churn-storm": (
        _churn_storm,
        "8804ec1ad389c5939a0b5e71fd9c0786b3ddbb6042a0fe217ca07c994bf41785",
        "0ef31d3bc7c537341888c2632ab6b38156dfd40a4a6548a7ae644c9c91244cd2",
    ),
    "hotstuff-follower-crash": (
        _follower_crash,
        "fcd7a45216e25d3a0bd7d9588fea163eef3fa224cb18c994d1741fc195e4821d",
        "bf220d46f1550905fba24569b6fc6ab7e26ab9e64e3d7ae574f49622ee09c927",
    ),
    "kauri-leaf-crash": (
        _leaf_crash,
        "030752e2729345e2c0ddd2dc95b374f9943ecc223878b97994e353991d3efa44",
        "12edea766d4c229f767b3fd08b5a96e6d13643ae91d2b4d31d19909dafc4e2d9",
    ),
    "kauri-intermediate-crash": (
        _intermediate_crash,
        "47e1557c2784d01f75b527452fc76faae2c9d488a92eddeafd7b3947e6ee2f39",
        "5435197a130e3c73d5b43c479600c84523c2824bbebf23ebe8374d4812a69422",
    ),
    "kauri-tree-change": (
        _tree_change,
        "7b9a94c9e0a707ba363d69cdbf12490272fc3f1890e990d1eb1d17bc1b195cbb",
        "457d7cc0ce5526968f82dad49433402beb78d60d32c09a444e0aba7c64903628",
    ),
    # Recorded on the commit before state transfer moved into the engines.
    "pbft-optiaware-follower-crash": (
        _pbft_follower_crash,
        "77cd8761c9c148b3869025a579397349cc291c084bc1c76927ac54ea90386bb4",
        "148e598009c09618f158d20529f6d70b14453e9db47fd4d514de41768d30a138",
    ),
}


# Heap-only, and every fanout of four or more parked in the row store
# until the fault lands.  (The ids are the two plane names these runs
# used to go by, kept so the test ids outlive the second name.)
@pytest.mark.parametrize(
    "block_fanout",
    [pytest.param(float("inf"), id="object"), pytest.param(4, id="columnar")],
)
@pytest.mark.parametrize("case", sorted(_RECORDED))
def test_retirement_is_invisible_under_faults(case, block_fanout):
    build, recorded_state, recorded_order = _RECORDED[case]
    result = build(block_fanout)
    cluster = result.cluster
    recorder = DeliveryOrderRecorder(cluster.network)
    cluster.run(result.scenario.duration)
    assert recorder.count > 5_000
    assert (cluster.network.stats.plane["window_rows"] > 0) == (block_fanout == 4)
    assert state_trace_hash(cluster) == recorded_state
    assert recorder.digest == recorded_order


# ----------------------------------------------------------------------
# PBFT: a phase's vote accumulators die where the phase is decided
# ----------------------------------------------------------------------
def _pbft_static():
    return Scenario(
        protocol="pbft",
        deployment="Europe21",
        workload="open-loop",
        workload_params=dict(rate=150.0, clients=2),
        duration=4.0,
        seed=4,
    )


def _pbft_optiaware_delay():
    # Late votes raise suspicions here, so the sensor must still see the
    # votes the door turns away.
    return Scenario(
        protocol="pbft-optiaware",
        deployment="Europe21",
        workload="open-loop",
        workload_params=dict(rate=100.0, clients=2),
        duration=4.0,
        seed=4,
        delta=1.25,
        measurements=MeasurementPolicy(
            probe_at=0.2, publish_at=0.6, first_search_at=1.5, search_period=2.0
        ),
        faults=[
            FaultSpec(kind="delay", start=1.0, attacker="leader",
                      extra_delay=0.3, message_types=("PrePrepare",)),
        ],
    )


#: case -> (scenario builder, state_trace_hash, delivery digest), recorded on the
#: commit before the door, when every accumulator lived until compact().
_PBFT_RECORDED = {
    "pbft-static": (
        _pbft_static,
        "4c7b33c5a8071a2f1d6ae2e4d43f54d9a81a21e9837ff958aa19b6e63d2f4d4a",
        "f13344be09e53011c3c9989152390472cacfb2cc6d6b97414cb3482eae3f8cf3",
    ),
    "pbft-optiaware-delay": (
        _pbft_optiaware_delay,
        "0e820b00b172aefda3db9b7073c4023577ec1feb8defda99cefcaf463d77dbda",
        "3ae709a1eb64dec0d90ba4d2e8c9763a2b8097f0897a0f2ec4bdc6ac6a276e82",
    ),
}


@pytest.mark.parametrize("case", sorted(_PBFT_RECORDED))
def test_pbft_accumulators_die_at_decision(case):
    build, recorded_state, recorded_order = _PBFT_RECORDED[case]
    result = prepare_scenario(build())
    cluster = result.cluster
    recorder = DeliveryOrderRecorder(cluster.network)
    cluster.run(result.scenario.duration)  # no compact() anywhere
    assert cluster.replicas[0].executed_seq > 50
    for replica in cluster.replicas:
        assert not replica.prepare_senders.keys() & replica.sent_commit
        assert not replica.prepare_weight.keys() & replica.sent_commit
        assert not replica.commit_senders.keys() & replica.executed
        assert not replica.commit_weight.keys() & replica.executed
        # What is left is the instance in flight.
        assert len(replica.prepare_weight) + len(replica.commit_weight) <= 2
    assert state_trace_hash(cluster) == recorded_state
    assert recorder.digest == recorded_order
