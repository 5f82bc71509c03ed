"""Closed-loop clients: the paper's workload (§7.3).

Each client keeps exactly one request outstanding and issues the next as
soon as the previous one completes (optionally after a think time).
Offered load therefore tracks service capacity -- the classic closed
loop.  The clients are the shared
:class:`~repro.workloads.base.WorkloadClient`; the loop is the
:meth:`~repro.workloads.base.Workload._on_complete` hook, which resubmits
on the client that just completed.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.workloads.base import Workload, WorkloadClient


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

    def start(self) -> None:
        super().start()
        for client in self.clients:
            client.submit()

    def _on_complete(self, client: WorkloadClient) -> None:
        if self.think_time > 0:
            self.binding.sim.schedule(self.think_time, self._resubmit, client)
        else:
            self._resubmit(client)

    def _resubmit(self, client: WorkloadClient) -> None:
        if self.running:
            client.submit()
