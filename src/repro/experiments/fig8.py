"""Fig. 8: suspicion-graph candidate-set computation time.

Random suspicion graphs for configuration sizes n = 4..100, 100 graphs
per size; the candidate set is the maximum independent set computed with
Bron-Kerbosch on the inverted graph (exact with pivoting up to a size
threshold, the greedy heuristic beyond -- the paper likewise uses "a
heuristic variant").  Graphs are generated *outside* the timing window
on every branch; per-graph wall clock covers exactly the solver call,
and the distribution is reported as mean/p50/p95 per size.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.experiments.tables import format_table
from repro.optimize.graphs import Graph
from repro.optimize.maxindset import greedy_independent_set, maximum_independent_set

DEFAULT_SIZES = (4, 10, 16, 22, 30, 40, 50, 60, 75, 100)

#: Upper-triangle pair arrays per n, shared across the 100 graphs of a
#: size (row-major order matches the historical nested generation loop).
_PAIR_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _pairs(n: int) -> Tuple[np.ndarray, np.ndarray]:
    cached = _PAIR_CACHE.get(n)
    if cached is None:
        cached = _PAIR_CACHE[n] = np.triu_indices(n, k=1)
    return cached


def random_suspicion_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Erdős–Rényi G(n, p): each pair mutually distrusts with prob. p.

    Vectorized but stream-compatible: the ``rng.random()`` draws happen
    in the exact upper-triangle order of the historical nested loop (one
    per pair), so seeded graph sequences are bit-identical; only the
    per-pair comparison and edge insertion are batched.
    """
    pair_count = n * (n - 1) // 2
    draw = rng.random
    draws = np.fromiter(
        (draw() for _ in range(pair_count)), dtype=np.float64, count=pair_count
    )
    rows, cols = _pairs(n)
    hits = np.nonzero(draws < p)[0]
    graph = Graph(vertices=range(n))
    graph.add_edges(zip(rows[hits].tolist(), cols[hits].tolist()))
    return graph


@dataclass
class Fig8Row:
    n: int
    mean_time_ms: float
    p50_time_ms: float
    p95_time_ms: float
    mean_candidates: float
    solver: str


def run(
    sizes=DEFAULT_SIZES,
    graphs_per_size: int = 100,
    edge_probability: float = 0.5,
    exact_threshold: int = 26,
    seed: int = 0,
) -> List[Fig8Row]:
    rng = random.Random(seed)
    rows = []
    for n in sizes:
        exact = n <= exact_threshold
        solver = maximum_independent_set if exact else greedy_independent_set
        samples: List[float] = []
        total_candidates = 0
        for _ in range(graphs_per_size):
            # One graph alive at a time (a size's batch at n = 100 is
            # 37 MB), generated outside the timing window; rng is touched
            # only here, so the graph sequence does not depend on when
            # each graph is solved.
            graph = random_suspicion_graph(n, edge_probability, rng)
            start = time.perf_counter()
            candidates = solver(graph)
            samples.append(time.perf_counter() - start)
            total_candidates += len(candidates)
        rows.append(
            Fig8Row(
                n=n,
                mean_time_ms=1000.0 * sum(samples) / len(samples),
                p50_time_ms=1000.0 * float(np.percentile(samples, 50)),
                p95_time_ms=1000.0 * float(np.percentile(samples, 95)),
                mean_candidates=total_candidates / graphs_per_size,
                solver="bron-kerbosch" if exact else "greedy-heuristic",
            )
        )
    return rows


def main(graphs_per_size: int = 100, seed: int = 0) -> str:
    rows = run(graphs_per_size=graphs_per_size, seed=seed)
    return format_table(
        ["n", "mean time [ms]", "p50 [ms]", "p95 [ms]", "mean |K|", "solver"],
        [
            [r.n, r.mean_time_ms, r.p50_time_ms, r.p95_time_ms, r.mean_candidates, r.solver]
            for r in rows
        ],
        title="Fig. 8 -- candidate-set (max independent set) computation time",
    )


if __name__ == "__main__":
    print(main())
