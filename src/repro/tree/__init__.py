"""Tree-based role assignment: Kauri substrate and OptiTree (§6).

* :mod:`repro.tree.topology` -- height-3 b-ary tree configurations and the
  paper's branch-factor rule ``b = (√(4n-3) - 1) / 2``;
* :mod:`repro.tree.score` -- Definition 1's ``score(k, τ)`` plus the
  tree timeout derivation of Lemma 6;
* :mod:`repro.tree.kauri_reconfig` -- Kauri's t-bounded-conformity bins
  and star fallback;
* :mod:`repro.tree.candidates` -- the tree SuspicionMonitor variant with
  the disjoint-edge set ``E_d`` and triangle set ``T`` (§6.4);
* :mod:`repro.tree.optitree` -- OptiTree's annealed tree search;
* :mod:`repro.tree.kauri_sa` -- the Kauri-sa comparison variant (§7.5).
"""

from repro.tree.candidates import TreeSuspicionMonitor, build_disjoint_edge_set
from repro.tree.kauri_reconfig import KauriReconfigurer
from repro.tree.kauri_sa import KauriSaReconfigurer
from repro.tree.optitree import IncrementalTreeSearch, OptiTree, optitree_search
from repro.tree.score import TreeTimeouts, tree_score
from repro.tree.topology import TreeConfiguration, branch_factor_for

__all__ = [
    "IncrementalTreeSearch",
    "KauriReconfigurer",
    "KauriSaReconfigurer",
    "OptiTree",
    "TreeConfiguration",
    "TreeSuspicionMonitor",
    "TreeTimeouts",
    "branch_factor_for",
    "build_disjoint_edge_set",
    "optitree_search",
    "tree_score",
]
