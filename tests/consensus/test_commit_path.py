"""One commit path: every engine commits through ``ReplicaBase._commit``.

A recorder wrapped around the seam sees every block every replica
commits.  What it saw must be exactly what the replica's metrics hold
and exactly the client replies the replica sent, so an oracle, tap or
cluster-level measurement hooked there misses nothing and double-counts
nothing:

* each replica's ``(height, now, block.timestamp, payload_count)`` rows
  equal its ``metrics.commits``, one for one and in order;
* heights strictly increase per replica;
* the ``Reply`` messages each replica sends are the request ids of the
  blocks it committed, in commit order, stamped with the commit time;
* under ``sketch`` metrics, ``sketch.blocks`` counts the seam calls.
"""

from collections import defaultdict

import pytest

from repro.consensus.base import ClusterBase, ReplicaBase
from repro.consensus.messages import Reply
from repro.experiments.runner import (
    FaultSpec,
    MeasurementPolicy,
    Scenario,
    run_scenario,
)
from repro.sim.network import Network

_ENGINES = [
    "pbft",
    "pbft-optiaware",
    "hotstuff-fixed",
    "hotstuff-rr",
    "kauri",
    "optitree",
]


class _CommitTap:
    """Records the seam's calls and every client reply on the wire."""

    def __init__(self, monkeypatch):
        self.commits = defaultdict(list)  # replica id -> [(height, now, block)]
        self.replies = defaultdict(list)  # replica id -> [(client, rid, time)]
        self.catch_ups = []
        commit = ReplicaBase._commit
        send = Network.send
        catch_up = ClusterBase.catch_up

        def recording_commit(replica, height, block):
            self.commits[replica.id].append((height, replica.sim.now, block))
            commit(replica, height, block)

        def recording_send(network, src, dst, message, size=0):
            if isinstance(message, Reply):
                assert message.replica == src
                self.replies[src].append(
                    (dst, message.request_id, message.commit_time)
                )
            send(network, src, dst, message, size)

        def recording_catch_up(cluster, victim):
            self.catch_ups.append(victim)
            catch_up(cluster, victim)

        monkeypatch.setattr(ReplicaBase, "_commit", recording_commit)
        # Replicas prebind network.send at construction: patch first.
        monkeypatch.setattr(Network, "send", recording_send)
        monkeypatch.setattr(ClusterBase, "catch_up", recording_catch_up)

    def rows(self, replica_id):
        return [
            (height, now, block.timestamp, block.payload_count)
            for height, now, block in self.commits[replica_id]
        ]

    def expected_replies(self, replica_id):
        return [
            (client_id, request_id, now)
            for _height, now, block in self.commits[replica_id]
            for client_id, request_id, _send_time in block.request_ids
        ]

    def check(self, cluster, exact=True):
        assert self.commits, "nothing committed"
        for replica in cluster.replicas:
            rid = replica.id
            heights = [height for height, _now, _block in self.commits[rid]]
            assert all(a < b for a, b in zip(heights, heights[1:])), rid
            assert self.replies[rid] == self.expected_replies(rid), rid
            if exact:
                assert [tuple(e) for e in replica.metrics.commits] == self.rows(rid)
            else:
                assert replica.metrics.sketch.blocks == len(heights), rid


def _saturating(protocol):
    # PBFT is client-driven: its saturating workload is the closed loop.
    if protocol.startswith("pbft"):
        return "closed-loop", {}
    return "saturated", {}


def _scenario(protocol, workload, params, **overrides):
    settings = dict(
        protocol=protocol,
        deployment="wonderproxy-7",
        workload=workload,
        workload_params=params,
        duration=5.0,
        seed=1,
        # OptiAware needs delta >= 1 + jitter (no suspicion storm).
        delta=1.25 if protocol == "pbft-optiaware" else 1.0,
        search_iterations=200,
    )
    settings.update(overrides)
    return Scenario(**settings)


@pytest.mark.parametrize("protocol", _ENGINES)
@pytest.mark.parametrize("load", ["saturating", "open-loop"])
def test_every_commit_goes_through_the_seam(monkeypatch, protocol, load):
    tap = _CommitTap(monkeypatch)
    if load == "saturating":
        workload, params = _saturating(protocol)
    else:
        workload, params = "open-loop", dict(rate=80.0, clients=2)
    result = run_scenario(_scenario(protocol, workload, params))
    tap.check(result.cluster)
    if load == "open-loop":
        assert any(tap.replies.values()), "no client was ever answered"


@pytest.mark.parametrize("protocol", ["pbft", "hotstuff-rr", "kauri"])
def test_sketch_blocks_count_the_seam_calls(monkeypatch, protocol):
    tap = _CommitTap(monkeypatch)
    result = run_scenario(
        _scenario(
            protocol,
            "open-loop",
            dict(rate=80.0, clients=2),
            measurements=MeasurementPolicy(metrics="sketch"),
        )
    )
    tap.check(result.cluster, exact=False)


@pytest.mark.parametrize("protocol", ["pbft", "hotstuff-fixed"])
def test_revived_replica_commits_through_the_seam(monkeypatch, protocol):
    # A follower (PBFT's leader is 0, HotStuff-fixed's is 1 at seed 1)
    # crashes and rejoins through catch_up; what it commits after the
    # state transfer still goes through the seam.
    tap = _CommitTap(monkeypatch)
    victim = 3
    crash = FaultSpec(kind="crash", start=1.0, end=2.5, attacker=victim)
    result = run_scenario(
        _scenario(
            protocol,
            "open-loop",
            dict(rate=80.0, clients=2),
            faults=[crash],
        )
    )
    assert tap.catch_ups == [victim]
    tap.check(result.cluster)
    revived = [
        height for height, now, _block in tap.commits[victim] if now >= 2.5
    ]
    assert revived, "the revived replica never committed again"
