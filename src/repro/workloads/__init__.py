"""Workload generation.

The paper evaluates under a single closed-loop, fixed-batch workload
(§7.3); this package generalises that into pluggable traffic shapes so
the role-assignment machinery can be stressed under bursts, skew and
open-loop saturation:

* :class:`ClosedLoopWorkload` -- the paper's client: one outstanding
  request per client, next issued on completion;
* :class:`OpenLoopWorkload` -- Poisson arrivals at a constant rate,
  independent of service progress;
* :class:`BurstyWorkload` -- on/off phases with sharp transitions;
* :class:`RampWorkload` -- rate ramping up to find the saturation knee;
* :class:`DiurnalWorkload` -- a raised-cosine day/night cycle;
* :class:`FlashCrowdWorkload` -- recurring flash crowds that decay back
  to a baseline;
* :class:`SkewedWorkload` -- Zipf-weighted clients pinned to the
  deployment's cities (multi-region skew).

The open-loop shapes share one rate profile: a step table set through
:meth:`OpenLoopWorkload.set_profile` and read by one lookup, so every
shape samples its arrivals exactly at its rate boundaries.

Every workload's endpoints are the one :class:`WorkloadClient` class;
workloads differ only in when they call its ``submit`` -- on a timer
(open loop and its subclasses) or from the completion hook (closed
loop) -- so every shape is measured, streamed and checkpointed alike.

All workloads draw randomness from
:meth:`repro.sim.engine.Simulator.derive_rng`, so runs are bit-identical
under a fixed seed.  Engines attach workloads through
``attach_workload`` / the ``workload=`` constructor argument on their
cluster classes, or declaratively through
:mod:`repro.experiments.runner`.
"""

from typing import Any, Dict, Type

from repro.workloads.base import (
    CLIENT_ID_BASE,
    ClusterBinding,
    Workload,
    WorkloadClient,
    percentile,
)
from repro.workloads.closed_loop import ClosedLoopWorkload
from repro.workloads.open_loop import (
    BurstyWorkload,
    DiurnalWorkload,
    FlashCrowdWorkload,
    OpenLoopWorkload,
    RampWorkload,
)
from repro.workloads.skewed import SkewedWorkload, zipf_weights

#: Requests per block proposal (§7.3: "blocks of 1000 proposals").
REQUESTS_PER_BLOCK = 1000

#: Pipeline depth used for all pipelined runs (§7.3: "3 instances").
PIPELINE_DEPTH = 3

#: Registry used by the scenario runner and the ``python -m repro`` CLI.
#: ``"saturated"`` (no client traffic, engines self-clocked at
#: REQUESTS_PER_BLOCK per block) is handled by the runner, not here.
WORKLOADS: Dict[str, Type[Workload]] = {
    ClosedLoopWorkload.name: ClosedLoopWorkload,
    OpenLoopWorkload.name: OpenLoopWorkload,
    BurstyWorkload.name: BurstyWorkload,
    SkewedWorkload.name: SkewedWorkload,
    RampWorkload.name: RampWorkload,
    DiurnalWorkload.name: DiurnalWorkload,
    FlashCrowdWorkload.name: FlashCrowdWorkload,
}


def make_workload(name: str, **params: Any) -> Workload:
    """Instantiate a registered workload by name with keyword params."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        known = ", ".join(sorted(WORKLOADS))
        raise ValueError(f"unknown workload {name!r} (known: {known})") from None
    return factory(**params)


__all__ = [
    "CLIENT_ID_BASE",
    "BurstyWorkload",
    "ClosedLoopWorkload",
    "ClusterBinding",
    "DiurnalWorkload",
    "FlashCrowdWorkload",
    "OpenLoopWorkload",
    "PIPELINE_DEPTH",
    "RampWorkload",
    "REQUESTS_PER_BLOCK",
    "SkewedWorkload",
    "WORKLOADS",
    "Workload",
    "WorkloadClient",
    "make_workload",
    "percentile",
    "zipf_weights",
]
