"""Kauri: tree-based dissemination and aggregation with pipelining (§6.1).

The root (leader) sends proposals down a height-3 tree; intermediate
nodes forward to their leaves, collect child votes (with per-child
timeouts derived from the recorded latencies, as in §7.4) and send an
aggregate up; the root certifies a block once enough votes arrived.
Commit uses HotStuff's 3-chain rule.  Pipelining keeps up to
``pipeline_depth`` instances in flight, which is how Kauri converts its
higher per-round latency into throughput.

Aggregates follow OptiTree's completeness rule (§6.3): a missing child
vote must be replaced by a suspicion, otherwise the aggregate is
proof-of-misbehavior against the intermediate (checked at the root when
OptiLog is attached).

Tree changes are cluster-driven: when the root stalls (crash, attack),
the cluster invokes the installed reconfiguration policy (Kauri bins,
Kauri-sa, or OptiTree search) and installs the new tree on every replica.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.consensus.base import GENESIS_HASH, ChainedReplica, ClusterBase
from repro.consensus.messages import (
    AggregateVote,
    Block,
    ClientRequest,
    Forward,
    Proposal,
    Vote,
)
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import aggregate
from repro.net.deployments import Deployment
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.tree.topology import TreeConfiguration

_VOTE_SIZE = Vote.wire_size

class _Collection:
    """Vote collection state at an intermediate node, per height.

    A ``__slots__`` class: one is allocated per height per intermediate,
    and slot access is what the per-vote path touches.  It lives until
    its aggregate is sent (:meth:`KauriReplica._flush_aggregate` deletes
    it), so "already sent" is "no longer in ``collections``".
    """

    __slots__ = ("block", "votes", "timer")

    def __init__(self, block: Block):
        self.block = block
        self.votes: Set[int] = set()
        self.timer: Optional[object] = None


class KauriReplica(ChainedReplica):
    """One Kauri replica; its role follows the installed tree."""

    #: Requests per block (the paper batches 1000).
    payload_per_block = 1000

    def __init__(
        self,
        replica_id: int,
        n: int,
        f: int,
        sim: Simulator,
        network: Network,
        registry: KeyRegistry,
        tree: TreeConfiguration,
        pipeline_depth: int = 1,
        delta: float = 1.0,
    ):
        super().__init__(replica_id, n, f, sim, network, registry)
        self.tree = tree
        self._adopt_tree_roles(tree)
        self.pipeline_depth = pipeline_depth
        self.delta = delta
        # block_at_height holds the root's own proposals (tree-change
        # recovery and the commit rule read them); qc_heights is the
        # root's and empty elsewhere.
        self.next_height = 1
        self.last_parent = GENESIS_HASH
        #: Root: heights proposed and not yet certified, and who voted
        #: for each; a height leaves both when it is certified.
        self.in_flight: Set[int] = set()
        self.root_votes: Dict[int, Set[int]] = {}
        #: Intermediate: height -> collection, until the aggregate is sent.
        self.collections: Dict[int, _Collection] = {}
        #: Suspicions raised by aggregation timeouts (§6.3), folded per
        #: child as ``child -> (count, first_height, last_height)`` so a
        #: long-dead child costs O(1).  Nothing in ``src`` reads it yet:
        #: the reader is the engine test, and the event tap of ROADMAP
        #: item 4 when it lands.
        self.aggregation_suspicions: Dict[int, Tuple[int, int, int]] = {}

    # ------------------------------------------------------------------
    # Role helpers
    # ------------------------------------------------------------------
    def _adopt_tree_roles(self, tree: TreeConfiguration) -> None:
        """Cache this replica's role lookups for the per-message path.

        ``tree.intermediates`` is a fresh tuple slice per access and
        ``children``/``parent`` are dict hits; the per-message handlers
        instead read the plain attributes cached here (re-cached by
        :meth:`install_tree` on reconfiguration).
        """
        self._root = tree.root
        self._my_children = tree.children.get(self.id, ())
        self._child_set = frozenset(self._my_children)
        self._my_parent = tree.parent.get(self.id)
        self._expected_votes = len(self._my_children) + 1
        self._intermediate_set = frozenset(tree.intermediates)
        self._is_intermediate = self.id in self._intermediate_set
        #: Lazily computed aggregation-timer horizon (max child timeout):
        #: the link delays are static, so it is the same every height.
        self._flush_horizon: Optional[float] = None

    @property
    def is_root(self) -> bool:
        return self.tree.root == self.id

    def child_timeout(self, child: int) -> float:
        # δ · 2 · one_way · 2: δ times two round trips on the emulated link.
        two_round_trips = 2.0 * self.network.one_way_delay(self.id, child) * 2.0
        return self.delta * two_round_trips

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.running = True
        if self.is_root:
            self._fill_pipeline()

    def install_tree(self, tree: TreeConfiguration) -> None:
        """Adopt a new tree (reconfiguration); collection state resets."""
        self.tree = tree
        self._adopt_tree_roles(tree)
        self.collections.clear()
        self.root_votes.clear()
        self.in_flight.clear()
        if self.running and self.is_root:
            self._fill_pipeline()

    # ------------------------------------------------------------------
    # Root: proposing and certifying
    # ------------------------------------------------------------------
    def _fill_pipeline(self) -> None:
        while len(self.in_flight) < self.pipeline_depth:
            self._propose_next()

    def _propose_next(self) -> None:
        if not self.running or not self.is_root:
            return
        height = self.next_height
        self.next_height += 1
        if self.request_driven:
            # Claim while draining: a key already claimed (in flight under
            # this tree, committed, or duplicated in the buffer after a
            # recovery) is never proposed twice.
            batch: List[ClientRequest] = []
            remaining: List[ClientRequest] = []
            for request in self.pending_requests:
                key = (request.client_id, request.request_id)
                if key in self._claimed_requests or key in self._claimed_requests_old:
                    continue
                if len(batch) < self.payload_per_block:
                    batch.append(request)
                    self._claimed_requests.add(key)
                else:
                    remaining.append(request)
            self.pending_requests = remaining
            payload_count = len(batch)
            request_ids = tuple(
                (r.client_id, r.request_id, r.send_time) for r in batch
            )
        else:
            payload_count = self.payload_per_block
            request_ids = ()
        block = Block(
            height=height,
            proposer=self.id,
            parent=self.last_parent,
            payload_count=payload_count,
            records=(),
            timestamp=self.sim.now,
            request_ids=request_ids,
        )
        self.last_parent = block.hash
        self.block_at_height[height] = block
        self.in_flight.add(height)
        self.root_votes[height] = {self.id}
        proposal = Proposal(height=height, block=block, qc=None)
        self.multicast(self.tree.intermediates, proposal)

    def handle_AggregateVote(self, src: int, message: AggregateVote) -> None:  # noqa: N802
        if not self.running or self._root != self.id:
            return
        if src not in self._intermediate_set:
            return
        votes = self.root_votes.get(message.height)
        if votes is None:
            return  # certified already, or from before a tree change
        votes.update(message.aggregate.signers)
        votes.add(src)
        if len(votes) >= self.quorum:
            self._certify(message.height)

    def _certify(self, height: int) -> None:
        """Enough votes for ``height``: certify it, try the commit rule
        and refill the pipeline.  (Leaves learn commits through the next
        proposals in a real system; metrics-wise the root's view is what
        Fig. 9 reports.)"""
        self.in_flight.discard(height)
        del self.root_votes[height]
        self.qc_heights.add(height)
        self._try_commit(height)
        self._fill_pipeline()

    # ------------------------------------------------------------------
    # Intermediates: forwarding and aggregation
    # ------------------------------------------------------------------
    def handle_Proposal(self, src: int, proposal: Proposal) -> None:  # noqa: N802
        if not self.running:
            return
        block = proposal.block
        # Claim before the role checks so an in-flight proposal still
        # prunes our buffer even when we are not this block's forwarder.
        if self.request_driven and block.request_ids:
            self._claim_requests(block)
        if src != self._root:
            return
        if not self._is_intermediate:
            return
        height = block.height
        collection = _Collection(block)
        collection.votes.add(self.id)  # own vote
        self.collections[height] = collection
        children = self._my_children
        self.multicast(children, Forward(height, block, self.id))
        if children:
            horizon = self._flush_horizon
            if horizon is None:
                horizon = self._flush_horizon = max(
                    self.child_timeout(child) for child in children
                )
            collection.timer = self.sim.schedule(
                horizon, self._flush_aggregate, height
            )
        else:
            self._flush_aggregate(height)

    def handle_Vote(self, src: int, vote: Vote) -> None:  # noqa: N802
        if not self.running or not self._is_intermediate:
            return
        collection = self.collections.get(vote.height)
        if collection is None:
            return
        if src not in self._child_set:
            return
        votes = collection.votes
        votes.add(src)
        if len(votes) >= self._expected_votes:
            if collection.timer is not None:
                collection.timer.cancel()
            self._flush_aggregate(vote.height)

    def _flush_aggregate(self, height: int) -> None:
        collection = self.collections.get(height)
        if collection is None or not self.running:
            return
        # Sent once: votes that arrive later find no collection.
        del self.collections[height]
        missing = self._child_set - collection.votes
        # §6.3: the aggregate must carry a suspicion for each missing vote.
        suspicions = self.aggregation_suspicions
        for child in sorted(missing):
            count, first, _last = suspicions.get(child, (0, height, height))
            suspicions[child] = (count + 1, first, height)
        agg = aggregate(
            self.registry,
            collection.block.hash,
            collection.votes,
            suspected=missing,
        )
        self.send(
            self.tree.root,
            AggregateVote(
                height=height,
                block_hash=collection.block.hash,
                sender=self.id,
                aggregate=agg,
            ),
        )

    # ------------------------------------------------------------------
    # Request book and commits (request-driven mode; root's view)
    # ------------------------------------------------------------------
    def _claim_requests(self, block: Block) -> None:
        """Drop requests the current root already put in flight.

        Every non-root replica sees each block (Proposal at
        intermediates, Forward at leaves), so after a tree change the new
        root does not re-propose -- and re-commit -- requests the old
        root already handled.  Blocks from a *previous* root are ignored:
        their uncommitted requests are recovered explicitly by
        :meth:`KauriCluster.install_tree`, and claiming them here would
        drop that recovery on the floor.  Callers skip the call when
        there is nothing to claim (saturated mode, empty block).
        """
        if block.proposer == self._root:
            super()._claim_requests(block)

    def _commit(self, height: int, block: Block) -> None:
        # Only the root observes commits, so it alone replies and clients
        # accept a single reply (replies_needed = 1).
        if block.request_ids:
            self._claim_requests(block)
        super()._commit(height, block)

    # ------------------------------------------------------------------
    # State transfer and stranded requests (revival, tree change)
    # ------------------------------------------------------------------
    def adopt_state(self, donor: "KauriReplica") -> None:
        """Adopt ``donor``'s heights and claimed request keys (see
        ClusterBase.catch_up)."""
        super().adopt_state(donor)
        self.next_height = max(self.next_height, donor.next_height)

    def release_stranded(self) -> List[ClientRequest]:
        """Requests this replica proposed as root but never committed,
        plus its undrained backlog -- the traffic a dead block must not
        lose.  The backlog is handed over, not copied."""
        if not self.request_driven:
            return []
        stranded: List[ClientRequest] = []
        for height in range(self.committed_height + 1, self.next_height):
            block = self.block_at_height.get(height)
            if block is None:
                continue
            stranded.extend(
                ClientRequest(client_id=cid, request_id=rid, send_time=st)
                for cid, rid, st in block.request_ids
            )
        stranded.extend(self.pending_requests)
        self.pending_requests = []
        return stranded

    def take_over(self, requests: List[ClientRequest]) -> None:
        """Queue requests stranded elsewhere for this root's next
        proposals, un-claiming them first: the blocks that claimed them
        are dead, and a stale claim would drop them on the floor."""
        for request in requests:
            key = (request.client_id, request.request_id)
            self._claimed_requests.discard(key)
            self._claimed_requests_old.discard(key)
        self.pending_requests.extend(requests)

    # ------------------------------------------------------------------
    # Leaves
    # ------------------------------------------------------------------
    def handle_Forward(self, src: int, message: Forward) -> None:  # noqa: N802
        if not self.running:
            return
        block = message.block
        # Claim before the parent check: a Forward from a stale parent
        # still proves the current root has these requests in flight.
        if self.request_driven and block.request_ids:
            self._claim_requests(block)
        if self._my_parent != src:
            return
        # Same fast construction as HotStuff's vote path: one per Forward.
        vote = tuple.__new__(Vote, (message.height, block.hash, self.id))
        self._network_send(self.id, src, vote, _VOTE_SIZE)


class KauriCluster(ClusterBase):
    """Builds and runs a Kauri/OptiTree deployment."""

    #: Only the tree root tracks commits, so clients accept its single
    #: reply.
    replies_needed = 1

    def __init__(
        self,
        deployment: Deployment,
        tree: TreeConfiguration,
        pipeline_depth: int = 1,
        seed: int = 0,
        jitter: float = 0.02,
        delta: float = 1.0,
    ):
        self.tree = tree
        self._build_network(deployment, seed, jitter)
        self.replicas: List[KauriReplica] = [
            KauriReplica(
                replica_id,
                self.n,
                self.f,
                self.sim,
                self.network,
                self.registry,
                tree=tree,
                pipeline_depth=pipeline_depth if replica_id == tree.root else 1,
                delta=delta,
            )
            for replica_id in range(self.n)
        ]

    @property
    def root_replica(self) -> KauriReplica:
        return self.replicas[self.tree.root]

    observer = root_replica

    def install_tree(self, tree: TreeConfiguration) -> None:
        old_root = self.replicas[self.tree.root]
        new_root = self.replicas[tree.root]
        stranded = old_root.release_stranded() if old_root is not new_root else []
        self.tree = tree
        for replica in self.replicas:
            replica.install_tree(tree)
        # Blocks the old root had in flight die with the old tree
        # (aggregation state is reset and stale AggregateVotes are
        # rejected), so their requests move to the new root.
        new_root.take_over(stranded)

    def _transfer(self, replica: KauriReplica, donor: KauriReplica) -> None:
        # Blocks the victim proposed into the void while down are dead
        # (every send from a down node is dropped): hand their stranded
        # requests to the live root, exactly as a tree change does.
        # N.B. a revived *root* additionally needs a reconfiguration
        # (Fig. 15's install_tree) before it proposes again; catch-up
        # restores state, it does not resurrect a stalled pipeline.
        stranded = replica.release_stranded()
        replica.adopt_state(donor)
        self.root_replica.take_over(stranded)

    def pause(self) -> None:
        for replica in self.replicas:
            replica.stop()

    def resume(self) -> None:
        for replica in self.replicas:
            replica.running = True
        self.root_replica._fill_pipeline()
