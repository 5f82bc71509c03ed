"""Tree scoring (Definition 1) and tree timeouts (Lemma 6).

``score(k, τ)`` is the minimum latency for the root to collect votes from
``k = q + u`` nodes: with aggregation latency
``Lagg(I) = max_{V ∈ Ch(I)} L[I][V]`` and subtree coverage
``|Ch(I)| + 1``, the score is

    score(k, τ) = min_{M ∈ M_{k-1}} max_{I ∈ M} (Lagg(I) + L[I][R])

where ``M_{k-1}`` are intermediate subsets whose subtrees cover at least
``k - 1`` votes (the root's own vote counts separately).  Because every
feasible set must cover ``k-1`` votes and each intermediate's contribution
is independent of the others, the optimum takes intermediates in ascending
``Lagg(I) + L[I][R]`` order until coverage is reached -- an O(b log b)
greedy rather than an exponential subset scan.

:meth:`TreeTimeouts.round_duration` additionally counts dissemination
(``L[R][I] + 2·Lagg(I) + L[I][R]``), which is the ``d_rnd`` used for
timeouts (TR3 via Lemma 6);  Definition 1's score is the ranking metric
and the figures report it, like the paper.

The score has two implementations, and both are production paths: the
vectorized one runs over the configuration's precomputed
:attr:`~repro.tree.topology.TreeConfiguration.score_arrays` (numpy child
index views) for wide trees, and the ``tree_score_scalar`` loop serves
every tree with a branch factor below ``_VECTORIZE_MIN_BRANCH``.  They
are bit-identical by construction (same IEEE ops in the same order),
pinned by ``tests/tree/test_score_equivalence.py``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.roundplan import ExpectedMessage
from repro.tree.topology import TreeConfiguration

PHASE_PROPOSE = 1
PHASE_FORWARD = 2
PHASE_VOTE = 3
PHASE_AGGREGATE = 4

#: Branch factor at which the vectorized scorer overtakes the scalar
#: loops (fixed numpy call overhead vs O(b²) Python link walks); both
#: produce bit-identical scores, so the dispatch is purely a speed
#: choice.  ``branch_factor_for(110) == 9`` and ``(111) == 10``: the
#: 73-replica deployments (b = 8) score on the scalar loops, n = 211
#: (b = 14) on the vectorized path.
_VECTORIZE_MIN_BRANCH = 10


def aggregation_latency(
    latency: np.ndarray, tree: TreeConfiguration, intermediate: int
) -> float:
    """Lagg(I): the slowest child link of an intermediate node."""
    children = tree.children[intermediate]
    if not children:
        return 0.0
    return max(float(latency[intermediate, child]) for child in children)


def _collect_time(
    costs: List[Tuple[float, int]], votes_needed: int
) -> float:
    """Min-max cost to cover ``votes_needed`` votes from (cost, votes) subtrees."""
    if votes_needed <= 0:
        return 0.0
    covered = 0
    for cost, votes in sorted(costs):
        covered += votes
        if covered >= votes_needed:
            return cost
    return math.inf


def _collect_time_array(
    costs: np.ndarray, votes: np.ndarray, votes_needed: int
) -> float:
    """Vectorized :func:`_collect_time` over parallel cost/vote arrays."""
    if votes_needed <= 0:
        return 0.0
    order = np.lexsort((votes, costs))
    covered = np.cumsum(votes[order])
    index = int(np.searchsorted(covered, votes_needed))
    if index >= covered.shape[0]:
        return math.inf
    return float(costs[order[index]])


def _subtree_costs(
    latency: np.ndarray, tree: TreeConfiguration
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-intermediate ``(ids, Lagg, uplink cost, votes)`` arrays."""
    intermediates, child, mask, votes = tree.score_arrays
    if mask.shape[1]:
        links = np.where(mask, latency[intermediates[:, None], child], -np.inf)
        lagg = links.max(axis=1)
        lagg = np.where(mask.any(axis=1), lagg, 0.0)
    else:
        lagg = np.zeros(intermediates.shape[0])
    return intermediates, lagg, latency[intermediates, tree.root], votes


def tree_score(
    latency: np.ndarray, tree: TreeConfiguration, k: int
) -> float:
    """Definition 1: minimum latency to collect votes from ``k`` nodes."""
    if tree.branch_factor < _VECTORIZE_MIN_BRANCH:
        return tree_score_scalar(latency, tree, k)
    intermediates, lagg, uplink, votes = _subtree_costs(latency, tree)
    return _collect_time_array(lagg + uplink, votes, k - 1)


def tree_score_scalar(
    latency: np.ndarray, tree: TreeConfiguration, k: int
) -> float:
    """Reference implementation of :func:`tree_score` (Python loops)."""
    root = tree.root
    costs = [
        (
            aggregation_latency(latency, tree, intermediate)
            + float(latency[intermediate, root]),
            tree.subtree_size(intermediate),
        )
        for intermediate in tree.intermediates
    ]
    return _collect_time(costs, k - 1)  # the root's vote is added separately


class TreeTimeouts:
    """Per-message ``d_m`` for a tree round (Lemma 6).

    Message pattern: Propose (root → intermediates), Forwarded Propose
    (intermediate → leaves), Vote (leaf → intermediate), Aggregated Vote
    (intermediate → root).  Per the optimization note in §6.3, suspicions
    on Forwarded Proposes are omitted (the vote timeout subsumes them).

    The TR1/TR2 arrival chains are materialised lazily as per-replica
    numpy arrays the first time any chain value is read, so scoring a
    round or feeding the SuspicionSensor costs one vectorized pass
    instead of per-node Python recursion.
    """

    def __init__(self, latency: np.ndarray, tree: TreeConfiguration, k: int):
        self.latency = latency
        self.tree = tree
        self.k = k
        self._chains: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[int, float]]] = None

    def _materialise(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[int, float]]:
        """(propose, forward, vote, aggregate) arrival chains, memoized.

        ``propose``/``forward``/``vote`` are arrays indexed by replica id
        (forward/vote only meaningful at leaf ids); ``aggregate`` maps
        intermediate id -> arrival.  Each chain applies TR2 in the same
        order as the scalar definitions, so values are bit-identical.
        """
        if self._chains is not None:
            return self._chains
        latency = self.latency
        tree = self.tree
        root = tree.root
        propose = np.array(latency[root], dtype=float, copy=True)
        forward = np.zeros_like(propose)
        vote = np.zeros_like(propose)
        leaves = np.fromiter(tree.leaves, dtype=np.intp, count=len(tree.leaves))
        if leaves.size:
            parents = np.fromiter(
                (tree.parent[int(leaf)] for leaf in leaves),
                dtype=np.intp,
                count=leaves.size,
            )
            forward[leaves] = propose[parents] + latency[parents, leaves]
            vote[leaves] = forward[leaves] + latency[leaves, parents]
        aggregate: Dict[int, float] = {}
        for intermediate in tree.intermediates:
            children = tree.children[intermediate]
            if children:
                slowest = float(vote[np.fromiter(children, dtype=np.intp)].max())
            else:
                slowest = float(propose[intermediate])
            aggregate[intermediate] = slowest + float(latency[intermediate, root])
        self._chains = (propose, forward, vote, aggregate)
        return self._chains

    def propose_arrival(self, intermediate: int) -> float:
        """TR1: Propose reaches an intermediate at L(R, I)."""
        return float(self.latency[self.tree.root, intermediate])

    def forward_arrival(self, leaf: int) -> float:
        """Forwarded Propose reaches a leaf via its parent (TR2)."""
        return float(self._materialise()[1][leaf])

    def round_duration(self) -> float:
        """TR3: d_rnd from the aggregate arrivals, i.e. the quorum-collect
        time of ``L[R][I] + 2·Lagg(I) + L[I][R]`` over the subtrees."""
        aggregate = self._materialise()[3]
        costs = [
            (aggregate[intermediate], self.tree.subtree_size(intermediate))
            for intermediate in self.tree.intermediates
        ]
        return _collect_time(costs, self.k - 1)

    # ------------------------------------------------------------------
    # SuspicionSensor feeds, per role
    # ------------------------------------------------------------------
    def expected_messages(self, replica: int) -> List[ExpectedMessage]:
        """Messages ``replica`` expects in one round, given its role."""
        tree = self.tree
        if replica == tree.root:
            aggregate = self._materialise()[3]
            return [
                ExpectedMessage(
                    sender=intermediate,
                    msg_type="aggregate",
                    phase=PHASE_AGGREGATE,
                    d_m=aggregate[intermediate],
                )
                for intermediate in tree.intermediates
            ]
        if replica in tree.internal_nodes:
            vote = self._materialise()[2]
            expected = [
                ExpectedMessage(
                    sender=tree.root,
                    msg_type="propose",
                    phase=PHASE_PROPOSE,
                    d_m=self.propose_arrival(replica),
                )
            ]
            expected.extend(
                ExpectedMessage(
                    sender=child,
                    msg_type="vote",
                    phase=PHASE_VOTE,
                    d_m=float(vote[child]),
                )
                for child in tree.children[replica]
            )
            return expected
        # Leaf: per §6.3 leaves omit condition-(b) suspicion monitoring;
        # they only expect the forwarded proposal for latency measurement.
        return [
            ExpectedMessage(
                sender=tree.parent[replica],
                msg_type="forward",
                phase=PHASE_FORWARD,
                d_m=self.forward_arrival(replica),
            )
        ]


def default_k(n: int, f: int, u: int) -> int:
    """k = q + u with q = n - f (§6.3)."""
    return (n - f) + u
