"""Event-driven consensus engines over the simulated network.

* :mod:`repro.consensus.pbft` -- PBFT/BFT-SMaRt-style three-phase engine
  with Wheat weighted quorums; hosts Aware and OptiAware (Fig. 7).
* :mod:`repro.consensus.hotstuff` -- chained HotStuff over a star
  topology with fixed or round-robin leader (Fig. 9 baselines).
* :mod:`repro.consensus.kauri` -- tree-based dissemination/aggregation
  with pipelining, Kauri reconfiguration and OptiTree integration
  (Figs. 9, 11, 15).

Documented simplification: view/tree changes are
driven by the deterministic OptiLog log state rather than a full
view-change sub-protocol -- every correct replica derives the same
decision from the same committed prefix, which is the property a real
view change establishes.  Safety of the commit rules themselves is
implemented and tested (no two correct replicas commit different blocks
at a height).
"""

from repro.consensus.messages import Block, ClientRequest, Reply
from repro.consensus.hotstuff import HotStuffCluster
from repro.consensus.kauri import KauriCluster
from repro.consensus.pbft import PbftCluster

__all__ = [
    "Block",
    "ClientRequest",
    "HotStuffCluster",
    "KauriCluster",
    "PbftCluster",
    "Reply",
]
