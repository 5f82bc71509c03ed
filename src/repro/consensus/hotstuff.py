"""Chained HotStuff over a star topology (§7.3 baselines).

A fixed (``HotStuff-fixed``) or round-robin (``HotStuff-rr``) leader
proposes a block extending its highest QC; replicas vote to the next
height's leader; a quorum of votes forms the QC that certifies the block
and starts the next height.  Commit uses the 3-chain rule: a block
commits once it heads a chain of three consecutively-certified heights.

Blocks carry ``payload_per_block`` requests (the paper batches 1000
requests per block, without transaction payload), so the engine is
saturated: a new block is proposed every round, which is the regime the
throughput figures measure.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.consensus.base import GENESIS_HASH, ChainedReplica, ClusterBase
from repro.consensus.messages import Block, Proposal, Vote
from repro.crypto.signatures import KeyRegistry
from repro.crypto.threshold import QuorumCertificate, aggregate
from repro.net.deployments import Deployment
from repro.sim.engine import Simulator
from repro.sim.network import Network

_VOTE_SIZE = Vote.wire_size

class HotStuffReplica(ChainedReplica):
    """One chained-HotStuff replica."""

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
        leader_mode: str = "fixed",
        fixed_leader: int = 0,
    ):
        super().__init__(replica_id, n, f, sim, network, registry)
        if leader_mode not in ("fixed", "rr"):
            raise ValueError(f"unknown leader mode {leader_mode!r}")
        if not 0 <= fixed_leader < n:
            # No replica would ever lead: the run commits nothing, silently.
            raise ValueError(
                f"fixed_leader must be a replica id in [0, {n}), got {fixed_leader!r}"
            )
        self.leader_mode = leader_mode
        self.fixed_leader = fixed_leader
        #: leader_of() inlined as a flag for the per-message handlers.
        self._round_robin = leader_mode == "rr"
        #: height -> voters at the next leader, deleted when the QC forms.
        self.votes: Dict[int, Set[int]] = {}
        self.high_qc: Optional[QuorumCertificate] = None
        self.last_voted_height = 0

    # ------------------------------------------------------------------
    # Roles
    # ------------------------------------------------------------------
    def leader_of(self, height: int) -> int:
        if self.leader_mode == "fixed":
            return self.fixed_leader
        return height % self.n

    # ------------------------------------------------------------------
    # Proposing
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.running = True
        if self.leader_of(1) == self.id:
            self.propose(1, GENESIS_HASH)

    def propose(self, height: int, parent: str) -> None:
        if not self.running:
            return
        if self.request_driven:
            # Empty blocks are allowed: the chain must keep extending for
            # liveness (later requests ride on later heights).
            batch = self.pending_requests[: self.payload_per_block]
            self.pending_requests = self.pending_requests[len(batch):]
            block = Block(
                height=height,
                proposer=self.id,
                parent=parent,
                payload_count=len(batch),
                timestamp=self.sim.now,
                request_ids=tuple(
                    (r.client_id, r.request_id, r.send_time) for r in batch
                ),
            )
        else:
            block = Block(
                height=height,
                proposer=self.id,
                parent=parent,
                payload_count=self.payload_per_block,
                timestamp=self.sim.now,
            )
        self.broadcast(Proposal(height=height, block=block, qc=self.high_qc))

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def handle_Proposal(self, src: int, proposal: Proposal) -> None:  # noqa: N802
        if not self.running:
            return
        block = proposal.block
        height = block.height
        leader = height % self.n if self._round_robin else self.fixed_leader
        if src != leader or block.proposer != src:
            return
        # Claim before the height check: a proposal observed out of order
        # still proves its requests are in flight, and skipping the claim
        # would let a later leader re-batch (and re-commit) them.  Every
        # replica sees every Proposal, so rotating leaders never re-batch
        # requests a previous leader already put in flight.
        if self.request_driven and block.request_ids:
            self._claim_requests(block)
        if height <= self.last_voted_height:
            return
        qc = proposal.qc
        if qc is not None:
            # A piggybacked QC is new at every follower: certify its
            # height as _form_qc does at the leader.
            view = qc.view
            qc_heights = self.qc_heights
            if view not in qc_heights:
                qc_heights.add(view)
                self.votes.pop(view, None)
                high = self.high_qc
                if high is None or view > high.view:
                    self.high_qc = qc
                self._try_commit(view)
        block_hash = block.hash
        self.block_at_height[height] = block
        self.last_voted_height = height
        # Chained rule: votes for h go to the proposer of h+1.
        # tuple.__new__ bypasses the NamedTuple __new__ wrapper frame; this
        # is the single hottest allocation in a saturated run.
        target = (height + 1) % self.n if self._round_robin else self.fixed_leader
        vote = tuple.__new__(Vote, (height, block_hash, self.id))
        self._network_send(self.id, target, vote, _VOTE_SIZE)

    def handle_Vote(self, src: int, vote: Vote) -> None:  # noqa: N802
        if not self.running:
            return
        height = vote.height
        next_leader = (height + 1) % self.n if self._round_robin else self.fixed_leader
        if next_leader != self.id or height in self.qc_heights:
            return  # not ours to count, or a straggler behind the QC
        voters = self.votes.get(height)
        if voters is None:
            voters = self.votes[height] = set()
        voters.add(vote.sender)
        if len(voters) >= self.quorum:
            block = self.block_at_height.get(height)
            if block is None or block.hash != vote.block_hash:
                return
            self._form_qc(height, vote.block_hash, voters)

    # ------------------------------------------------------------------
    # QCs
    # ------------------------------------------------------------------
    def _form_qc(self, height: int, block_hash: str, voters: Set[int]) -> None:
        """Quorum at the next leader (``height`` is not yet certified):
        certify ``height``, retire its vote set, try the commit rule and
        propose on top."""
        qc = QuorumCertificate(
            view=height,
            block_hash=block_hash,
            aggregate=aggregate(self.registry, block_hash, voters),
            weight=float(len(voters)),
        )
        self.qc_heights.add(height)
        self.votes.pop(height, None)
        high = self.high_qc
        if high is None or height > high.view:
            self.high_qc = qc
        self._try_commit(height)
        self.propose(height + 1, block_hash)

    # ------------------------------------------------------------------
    # State transfer (a revived replica; see ClusterBase.catch_up)
    # ------------------------------------------------------------------
    def adopt_state(self, donor: "HotStuffReplica") -> None:
        """Adopt ``donor``'s commit point, uncommitted suffix, vote floor,
        highest QC and claimed request keys."""
        super().adopt_state(donor)
        # A replica holds blocks only until they commit, so the donor's
        # map is its uncommitted suffix; what this replica held at or
        # below the adopted commit point is retired with it.
        blocks = self.block_at_height
        blocks.update(donor.block_at_height)
        for height in [h for h in blocks if h <= self.committed_height]:
            del blocks[height]
        self.last_voted_height = max(self.last_voted_height, donor.last_voted_height)
        if donor.high_qc is not None and (
            self.high_qc is None or donor.high_qc.view > self.high_qc.view
        ):
            self.high_qc = donor.high_qc


class HotStuffCluster(ClusterBase):
    """Builds and runs a HotStuff deployment (Fig. 9 baselines)."""

    def __init__(
        self,
        deployment: Deployment,
        leader_mode: str = "fixed",
        fixed_leader: int = 0,
        seed: int = 0,
        jitter: float = 0.02,
    ):
        self._build_network(deployment, deployment.one_way, seed, jitter)
        self.replicas: List[HotStuffReplica] = [
            HotStuffReplica(
                replica_id,
                self.n,
                self.f,
                self.sim,
                self.network,
                self.registry,
                leader_mode=leader_mode,
                fixed_leader=fixed_leader,
            )
            for replica_id in range(self.n)
        ]

    @property
    def observer(self) -> HotStuffReplica:
        """A non-leader replica, like the paper's throughput probes."""
        leader = self.replicas[0].leader_of(1)
        return self.replicas[(leader + 1) % self.n]
