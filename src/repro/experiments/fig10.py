"""Fig. 10: tree latency (score) under the targeted false-suspicion attack.

n = 211 replicas randomly distributed worldwide.  Each "reconfiguration"
step, a still-unexposed faulty replica raises a suspicion against a
correct internal node of the current best tree; both leave the candidate
set (the suspicion is reciprocated).  Three strategies are compared:

* **OptiTree** -- tree SuspicionMonitor (E_d / T), score(q + u);
* **Kauri-sa** -- annealed trees, but every failed tree's internal nodes
  are blacklisted and the score must budget q + f;
* **Kauri** -- random bin trees, score(q + f).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.core.log import AppendOnlyLog
from repro.experiments.tables import format_table
from repro.faults.false_suspicion import TargetedSuspicionAttack
from repro.net.deployments import random_world_deployment
from repro.optimize.annealing import AnnealingSchedule
from repro.tree.candidates import TreeSuspicionMonitor
from repro.tree.kauri_reconfig import KauriReconfigurer
from repro.tree.kauri_sa import KauriSaReconfigurer
from repro.tree.optitree import optitree_search
from repro.tree.score import tree_score


@dataclass
class Fig10Row:
    reconfigurations: int
    optitree: float
    kauri_sa: float
    kauri: float


def _schedule(iterations: int) -> AnnealingSchedule:
    return AnnealingSchedule(
        iterations=iterations, initial_temperature=0.05, cooling=0.9995
    )


def run_once(
    n: int,
    f: int,
    max_reconfigs: int,
    seed: int,
    sa_iterations: int,
) -> List[Fig10Row]:
    deployment = random_world_deployment(n, random.Random(seed))
    latency = deployment.latency.matrix_seconds() / 2.0
    q = n - f
    rng = random.Random(seed + 1)

    # --- OptiTree: log + tree suspicion monitor + attack -----------------
    log = AppendOnlyLog()
    monitor = TreeSuspicionMonitor(0, log, n=n, f=f)
    attack = TargetedSuspicionAttack(
        faulty_pool=list(range(n - f, n)), rng=random.Random(seed + 2)
    )
    opti_scores: List[float] = []
    kauri_sa = KauriSaReconfigurer(
        latency, n, f, rng=random.Random(seed + 3), schedule=_schedule(sa_iterations)
    )
    kauri_sa_scores: List[float] = []
    kauri = KauriReconfigurer(n, rng=random.Random(seed + 4))
    kauri_scores: List[float] = []

    for step in range(max_reconfigs + 1):
        # OptiTree: anneal within the current candidate set, score q+u.
        candidates, u = monitor.estimate()
        result = optitree_search(
            latency,
            n,
            f,
            candidates,
            u,
            rng=rng,
            schedule=_schedule(sa_iterations),
        )
        if result is None:
            opti_scores.append(float("inf"))
        else:
            opti_scores.append(tree_score(latency, result.best_state, q + u))
            # Attack: a faulty replica suspects a correct internal node.
            attack.attack_round(log, result.best_state, round_id=step)

        # Kauri-sa: anneal among non-blacklisted, score q+f.
        sa_tree = kauri_sa.next_tree()
        if sa_tree is None:
            kauri_sa_scores.append(float("inf"))
        else:
            kauri_sa_scores.append(tree_score(latency, sa_tree, q + f))
            kauri_sa.tree_failed(sa_tree)

        # Kauri: random tree, score q+f (reshuffles when bins run out).
        if kauri.trials >= kauri.bin_count:
            kauri = KauriReconfigurer(n, rng=random.Random(seed + 5 + step))
        kauri_tree = kauri.next_tree()
        kauri_scores.append(tree_score(latency, kauri_tree, q + f))

    return [
        Fig10Row(
            reconfigurations=step,
            optitree=opti_scores[step],
            kauri_sa=kauri_sa_scores[step],
            kauri=kauri_scores[step],
        )
        for step in range(max_reconfigs + 1)
    ]


def run(
    n: int = 211,
    f: int = 70,
    max_reconfigs: int = 32,
    runs: int = 5,
    seed: int = 0,
    sa_iterations: int = 3000,
) -> List[Fig10Row]:
    """Average rows over ``runs`` independent simulations."""
    accumulated = None
    for run_index in range(runs):
        rows = run_once(n, f, max_reconfigs, seed + 1000 * run_index, sa_iterations)
        if accumulated is None:
            accumulated = [[r.optitree, r.kauri_sa, r.kauri] for r in rows]
        else:
            for index, row in enumerate(rows):
                accumulated[index][0] += row.optitree
                accumulated[index][1] += row.kauri_sa
                accumulated[index][2] += row.kauri
    return [
        Fig10Row(
            reconfigurations=index,
            optitree=values[0] / runs,
            kauri_sa=values[1] / runs,
            kauri=values[2] / runs,
        )
        for index, values in enumerate(accumulated)
    ]


def main(runs: int = 3, max_reconfigs: int = 16, seed: int = 0) -> str:
    rows = run(runs=runs, max_reconfigs=max_reconfigs, seed=seed)
    return format_table(
        ["reconfigs", "OptiTree [s]", "Kauri-sa [s]", "Kauri [s]"],
        [[r.reconfigurations, r.optitree, r.kauri_sa, r.kauri] for r in rows],
        title="Fig. 10 -- tree latency (score) vs reconfigurations, n=211",
    )


if __name__ == "__main__":
    print(main())
