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
    is_independent_set,
    maximum_independent_set,
)

def __getattr__(name):
    # The adversary-synthesis engine sits above the experiments layer
    # (which itself uses this package), so it must load lazily: an eager
    # import here would close the cycle optimize -> experiments ->
    # consensus/core -> optimize.
    if name in ("AttackSearchEngine", "attack_search"):
        from repro.optimize import adversary

        return getattr(adversary, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AnnealingResult",
    "AnnealingSchedule",
    "AttackSearchEngine",
    "attack_search",
    "Graph",
    "IncrementalSearch",
    "anneal_incremental",
    "greedy_independent_set",
    "is_independent_set",
    "maximum_independent_set",
]
