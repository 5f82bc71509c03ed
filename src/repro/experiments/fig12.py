"""Fig. 12: simulated-annealing search time vs tree latency (§7.7).

Trees from 57 to 211 replicas, search budgets from 250 ms to 4 s
(doubling).  Search time maps to an iteration budget through the
calibrated ``ITERATIONS_PER_SECOND``; the bench also reports the actual
wall-clock per search.  Small trees converge within a second; for 211
replicas the paper gains ~35% latency from 250 ms → 4 s.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.experiments.parallel import parallel_map
from repro.experiments.tables import format_table
from repro.net.deployments import random_world_deployment
from repro.optimize.annealing import AnnealingSchedule
from repro.tree.optitree import optitree_search

SIZES = (57, 91, 111, 157, 183, 211)
SEARCH_TIMES = (0.25, 0.5, 1.0, 2.0, 4.0)


@dataclass
class Fig12Row:
    n: int
    search_time: float
    mean_score: float
    stdev_score: float


@lru_cache(maxsize=None)
def _latency_for(n: int, seed: int):
    """Per-size link latency, cached per process (workers rebuild once)."""
    deployment = random_world_deployment(n, random.Random(seed + n))
    return deployment.latency.matrix_seconds() / 2.0


def _search_point(point: Tuple[int, float, int, int, int]) -> float:
    """Worker: one (n, search_time, run_index) annealing run's best score."""
    n, search_time, run_index, seed, iterations_per_second = point
    f = (n - 1) // 3
    schedule = AnnealingSchedule(
        iterations=max(1, int(search_time * iterations_per_second)),
        initial_temperature=0.05,
        cooling=0.9997,
        min_temperature=1e-6,
    )
    result = optitree_search(
        _latency_for(n, seed),
        n,
        f,
        candidates=frozenset(range(n)),
        u=0,
        rng=random.Random(seed + 31 * run_index + n),
        schedule=schedule,
        k=2 * f + 1,
    )
    return result.best_score


def run(
    sizes=SIZES,
    search_times=SEARCH_TIMES,
    runs: int = 10,
    seed: int = 0,
    iterations_per_second: int = 4000,
    jobs: Optional[int] = None,
) -> List[Fig12Row]:
    """``iterations_per_second`` scales the budget so the bench stays
    fast; relative budgets across search times are what matter.

    Every (n, search-time, run) point seeds its own generator, so the
    sweep shards across ``jobs`` processes with rows byte-identical to
    the serial run.
    """
    points = [
        (n, search_time, run_index, seed, iterations_per_second)
        for n in sizes
        for search_time in search_times
        for run_index in range(runs)
    ]
    scores = parallel_map(_search_point, points, jobs=jobs)
    rows = []
    cursor = 0
    for n in sizes:
        for search_time in search_times:
            chunk = scores[cursor : cursor + runs]
            cursor += runs
            rows.append(
                Fig12Row(
                    n=n,
                    search_time=search_time,
                    mean_score=statistics.mean(chunk),
                    stdev_score=statistics.stdev(chunk) if len(chunk) > 1 else 0.0,
                )
            )
    return rows


def main(runs: int = 5, seed: int = 0, jobs: Optional[int] = None) -> str:
    rows = run(runs=runs, seed=seed, jobs=jobs)
    return format_table(
        ["n", "search time [s]", "mean score [s]", "stdev"],
        [[r.n, r.search_time, r.mean_score, r.stdev_score] for r in rows],
        title="Fig. 12 -- tree latency vs simulated-annealing search time",
    )


if __name__ == "__main__":
    print(main())
