"""The optimizer's cost model is the engine's latency, exactly.

OptiTree ranks trees by ``tree_score`` (Definition 1: the latency to
collect votes from 2f + 1 nodes over one-way link latencies).  In a
no-fault, jitter-free Kauri run with one block in flight the engine
charges nothing but link latency: a round down the tree and back costs
two scores on symmetric links, and the chained three-phase rule commits
a block three rounds after its proposal.  The mean commit latency is
therefore ``6 * tree_score`` to float rounding, for a random tree and
for an annealed one alike.  Any change to either side -- a resource
cost in the simulator, a new term in the score -- breaks this pin,
which is what it is for: a biased optimizer is only as good as the cost
it optimizes.
"""

import math

import pytest

from repro.experiments.runner import Scenario, run_scenario
from repro.tree.score import tree_score


@pytest.mark.parametrize("protocol", ["kauri", "optitree"])
@pytest.mark.parametrize("deployment", ["Europe21", "Global73"])
def test_mean_commit_latency_is_six_tree_scores(deployment, protocol):
    result = run_scenario(
        Scenario(
            protocol=protocol,
            deployment=deployment,
            workload="saturated",
            jitter=0.0,
            pipeline_depth=1,
            duration=10.0,
            seed=1,
            search_iterations=2000,
        )
    )
    cluster = result.cluster
    commits = result.run_metrics.commits
    assert len(commits) > 20
    mean = sum(c.commit_time - c.propose_time for c in commits) / len(commits)
    latency = cluster.deployment.latency.matrix_seconds() / 2.0
    score = tree_score(latency, cluster.tree, 2 * cluster.f + 1)
    assert math.isclose(mean, 6.0 * score, rel_tol=1e-9, abs_tol=0.0)
