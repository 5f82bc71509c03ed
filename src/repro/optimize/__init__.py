"""Optimization toolkit: annealing, independent sets, suspicion-graph sets.

Three pieces of machinery the paper's pipeline relies on:

* simulated annealing with a candidate-respecting ``mutate`` (§4.2.4, §7.7);
* deterministic maximum-independent-set computation via Bron-Kerbosch on
  the complement graph (§4.2.3, Fig. 8);
* the maximal disjoint edge set ``E_d`` and triangle set ``T`` used by
  OptiTree's candidate selection (§6.4).
"""

from repro.optimize.annealing import (
    AnnealingResult,
    AnnealingSchedule,
    IncrementalSearch,
    anneal_incremental,
)
from repro.optimize.graphs import Graph
from repro.optimize.maxindset import (
    greedy_independent_set,
    maximum_independent_set,
)


__all__ = [
    "AnnealingResult",
    "AnnealingSchedule",
    "Graph",
    "IncrementalSearch",
    "anneal_incremental",
    "greedy_independent_set",
    "maximum_independent_set",
]
