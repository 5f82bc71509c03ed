"""Closed-loop clients: the paper's workload (§7.3).

Each client keeps exactly one request outstanding and issues the next as
soon as the previous one completes (optionally after a think time).
Offered load therefore tracks service capacity -- the classic closed
loop.  :class:`ClosedLoopClient` is the standalone client the PBFT
engine has always used (it lived in ``repro.consensus.pbft`` before the
workload subsystem existed); :class:`ClosedLoopWorkload` wraps one or
more of them behind the :class:`~repro.workloads.base.Workload`
interface so HotStuff and Kauri can share the same traffic shape.

``ClosedLoopClient`` intentionally does NOT reuse
:class:`~repro.workloads.base.WorkloadClient`: its exact bookkeeping and
event ordering are what keep the Fig. 7 timeline bit-identical to the
pre-workload-subsystem runs, so it is preserved verbatim.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.workloads import base
from repro.workloads.base import ClusterBinding, Workload


class ClosedLoopClient:
    """One closed-loop client (the paper's per-city clients; Fig. 7
    measures a representative one)."""

    def __init__(
        self,
        client_id: int,
        n: int,
        f: int,
        sim: Simulator,
        network: Network,
        think_time: float = 0.0,
        replies_needed: Optional[int] = None,
    ):
        base._import_messages()  # lazy: breaks the consensus import cycle
        self.id = client_id
        self.n = n
        self.f = f
        self.sim = sim
        self.network = network
        self.think_time = think_time
        self.replies_needed = replies_needed if replies_needed is not None else f + 1
        self.next_request = 0
        self.replies: Dict[int, Set[int]] = {}
        self.latencies: List = []  # (complete_time, latency)
        self.outstanding: Optional[int] = None
        self.running = False
        self._last_send_time = 0.0
        network.register(client_id, self.on_message)

    @property
    def sent(self) -> int:
        return self.next_request

    @property
    def completed(self) -> int:
        return len(self.latencies)

    def start(self) -> None:
        self.running = True
        self._send_next()

    def stop(self) -> None:
        self.running = False

    def _send_next(self) -> None:
        if not self.running:
            return
        self.next_request += 1
        request = base.ClientRequest(
            client_id=self.id,
            request_id=self.next_request,
            send_time=self.sim.now,
        )
        self.outstanding = self.next_request
        self._last_send_time = self.sim.now
        self.replies[self.next_request] = set()
        for replica in range(self.n):
            self.network.send(self.id, replica, request, request.wire_size)

    def on_message(self, src: int, message) -> None:
        if not isinstance(message, base.Reply) or not self.running:
            return
        if message.request_id != self.outstanding:
            return
        voters = self.replies.setdefault(message.request_id, set())
        voters.add(src)
        if len(voters) == self.replies_needed:
            # Latency from request send to the f+1-th matching reply.
            self.latencies.append(
                (self.sim.now, self.sim.now - self._last_send_time)
            )
            self.outstanding = None
            if self.think_time > 0:
                self.sim.schedule(self.think_time, self._send_next)
            else:
                self._send_next()

    def latency_series(self, duration: float, bucket: float = 1.0):
        """Mean end-to-end latency per time bucket, Fig. 7's series."""
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for time, latency in self.latencies:
            index = int(time / bucket)
            sums[index] = sums.get(index, 0.0) + latency
            counts[index] = counts.get(index, 0) + 1
        return [
            (index * bucket, sums[index] / counts[index]) for index in sorted(sums)
        ]


class ClosedLoopWorkload(Workload):
    """``clients`` closed-loop issuers, optionally pinned to cities."""

    name = "closed-loop"

    def __init__(
        self,
        clients: int = 1,
        think_time: float = 0.0,
        sites: Optional[Sequence[int]] = None,
    ):
        super().__init__(clients=clients, sites=sites)
        self.think_time = think_time

    def _make_clients(self, binding: ClusterBinding) -> None:
        first = binding.first_client_id
        for k in range(self.num_clients):
            binding.place_client(first + k, self._site_of(k, binding))
            self.clients.append(
                ClosedLoopClient(
                    client_id=first + k,
                    n=binding.n,
                    f=binding.f,
                    sim=binding.sim,
                    network=binding.network,
                    think_time=self.think_time,
                    replies_needed=binding.replies_needed,
                )
            )

    def start(self) -> None:
        super().start()
        for client in self.clients:
            client.start()

    def stop(self) -> None:
        super().stop()
        for client in self.clients:
            client.stop()
