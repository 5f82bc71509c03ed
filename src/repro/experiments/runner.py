"""Unified scenario runner: protocol x deployment x workload x faults.

A :class:`Scenario` declaratively combines

* a **protocol** -- ``pbft`` / ``pbft-aware`` / ``pbft-optiaware``
  (three-phase engine hosting Aware/OptiAware), ``hotstuff-fixed`` /
  ``hotstuff-rr``, ``kauri`` (pipelined, random tree), ``optitree`` /
  ``optitree-nopipe`` (tree from simulated annealing);
* a **deployment** -- one of the paper's named city sets (``Europe21``,
  ``NA-EU43``, ``Global73``, ``Stellar56``) or ``wonderproxy-N`` for a
  seeded random world placement of ``N`` replicas drawn from the
  WonderProxy-derived city table;
* a **workload** -- any name registered in :data:`repro.workloads.WORKLOADS`
  plus ``saturated`` (no clients; HotStuff/Kauri self-clock full blocks,
  the paper's §7.3 regime);
* a **fault schedule** -- :class:`~repro.faults.schedule.FaultSpec`
  entries (delay / δ-bounded / stealth delay attacks, crashes with
  revival, churn cycles, link-level partitions, probabilistic message
  loss, fabricated false suspicions), armed by :mod:`repro.faults.schedule`
  and resolved against the live cluster at their start times;
* a **reconfiguration policy** -- :class:`MeasurementPolicy`, the
  probe/publish/search cadence driving Aware/OptiAware reconfiguration.

:func:`run_scenario` builds the cluster, attaches everything, runs the
simulation and returns a :class:`ScenarioResult` whose
:meth:`ScenarioResult.metrics` dict (throughput, commit-latency
percentiles, reconfiguration count, message totals) serialises to
bit-identical JSON for identical scenarios.  The figure drivers (fig7,
fig9) and the ``python -m repro`` CLI are thin layers over this module.
"""

from __future__ import annotations

import json
import math
import random
import re
import warnings
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.consensus.hotstuff import HotStuffCluster
from repro.consensus.kauri import KauriCluster
from repro.consensus.pbft import PbftCluster
from repro.faults.schedule import (
    ArmedFault,
    FaultSpec,
    arm_faults,
    validate_fault_composition,
)
from repro.metrics import Observer
from repro.net.deployments import Deployment, deployment_for, random_world_deployment
from repro.optimize.annealing import AnnealingSchedule
from repro.tree.kauri_reconfig import KauriReconfigurer
from repro.tree.optitree import optitree_search
from repro.workloads import PIPELINE_DEPTH, Workload, make_workload

#: Protocols the runner can build, mapped to (family, variant).
PROTOCOLS: Dict[str, Tuple[str, str]] = {
    "pbft": ("pbft", "static"),
    "pbft-aware": ("pbft", "aware"),
    "pbft-optiaware": ("pbft", "optiaware"),
    "hotstuff-fixed": ("hotstuff", "fixed"),
    "hotstuff-rr": ("hotstuff", "rr"),
    "kauri": ("kauri", "random-tree"),
    "optitree": ("kauri", "optitree"),
    "optitree-nopipe": ("kauri", "optitree-nopipe"),
}

#: Named deployments, keyed by lowercase alias.
NAMED_DEPLOYMENTS = {
    "europe21": "Europe21",
    "na-eu43": "NA-EU43",
    "global73": "Global73",
    "stellar56": "Stellar56",
}

#: ``world-N``, also spelled ``wonderproxy-N``: a seeded draw of N
#: replicas from the world city pool.
_WORLD = re.compile(r"^(world|wonderproxy)-(\d+)$")

#: The deployments built on demand from a name pattern, as (pattern,
#: description).  ``resolve_deployment``'s error text, the CLI's
#: ``--deployment`` help and ``repro list`` all read this one table
#: (the first two through ``deployment_names``).
DEPLOYMENT_PATTERNS = (
    ("world-N", "seeded random world placement, N >= 4"),
    ("wonderproxy-N", "older spelling of world-N"),
)


@dataclass
class MeasurementPolicy:
    """Aware/OptiAware reconfiguration cadence (the Fig. 7 schedule):
    probe peers, publish latency vectors, then search periodically.

    It holds no measurement switch: a scenario measures exactly and a
    campaign through sketches (see :mod:`repro.metrics`).
    """

    probe_at: float = 5.0
    publish_at: float = 15.0
    first_search_at: float = 40.0
    search_period: float = 25.0
    horizon: Optional[float] = None  # defaults to the scenario duration

    def __post_init__(self) -> None:
        # The search chain in ``schedule_measurements`` must terminate and
        # schedule nothing in the past.
        for name in ("probe_at", "publish_at", "first_search_at"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not (math.isfinite(self.search_period) and self.search_period > 0):
            raise ValueError(
                f"search_period must be finite and > 0, got {self.search_period!r}"
            )
        horizon = self.horizon
        if horizon is not None and not (math.isfinite(horizon) and horizon >= 0):
            raise ValueError(f"horizon must be finite and >= 0, got {horizon!r}")


@dataclass
class Scenario:
    """A declarative experiment: everything needed to reproduce one run."""

    protocol: str = "pbft"
    deployment: str = "Europe21"
    workload: Union[str, Workload] = "closed-loop"
    workload_params: Dict[str, Any] = field(default_factory=dict)
    duration: float = 30.0
    seed: int = 0
    #: Timer multiplier δ: a message is late past ``δ·d_m``.  Keep it at
    #: ``1 + jitter`` or above for ``pbft-optiaware``: below that, ordinary
    #: jittered arrivals exceed their deadline, so a fault-free run logs
    #: tens of thousands of suspicions (``prepare_scenario`` warns).  The
    #: curated scenarios and Fig. 7 use 1.25.
    delta: float = 1.0
    jitter: float = 0.02
    client_city: Optional[int] = None
    faults: List[FaultSpec] = field(default_factory=list)
    measurements: Optional[MeasurementPolicy] = None
    search_iterations: int = 20_000  # OptiTree's annealing budget
    pipeline_depth: Optional[int] = None
    #: There is one message plane; ``"object"`` and ``"columnar"`` both
    #: name it and select nothing.  The field stays only while the perf
    #: ledger's ``pbft-scale`` row passes ``plane="columnar"``: delete it
    #: once ROADMAP item 5(a) moves that row to the default.
    plane: str = "object"
    name: str = ""

    def __post_init__(self) -> None:
        if self.plane not in ("object", "columnar"):
            raise ValueError(
                f"unknown message plane {self.plane!r} (known: object, "
                "columnar -- two names of the one exact plane; the relaxed "
                "plane was removed)"
            )
        # NaN fails every comparison, so each rule states what must hold:
        # a NaN duration never ends a run, a NaN delta switches every
        # delta*d_m deadline off, a negative or NaN jitter is ignored.
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"duration must be finite and > 0, got {self.duration!r}")
        if not (math.isfinite(self.jitter) and self.jitter >= 0):
            raise ValueError(f"jitter must be finite and >= 0, got {self.jitter!r}")
        if not (math.isfinite(self.delta) and self.delta > 0):
            raise ValueError(f"delta must be finite and > 0, got {self.delta!r}")
        if self.pipeline_depth is not None and self.pipeline_depth < 1:
            raise ValueError(
                f"pipeline_depth must be None or >= 1, got {self.pipeline_depth!r}"
            )
        if self.search_iterations < 0:
            raise ValueError(
                f"search_iterations must be >= 0, got {self.search_iterations!r}"
            )
        validate_fault_composition(self.faults)

    def describe(self) -> Dict[str, Any]:
        """JSON-able identity of the scenario (what was run).  ``plane``
        is not part of it: both accepted names run the one plane."""
        workload = (
            self.workload if isinstance(self.workload, str) else self.workload.name
        )
        return {
            "name": self.name or f"{self.protocol}/{self.deployment}/{workload}",
            "protocol": self.protocol,
            "deployment": self.deployment,
            "workload": workload,
            "workload_params": dict(sorted(self.workload_params.items())),
            "duration": self.duration,
            "seed": self.seed,
            "delta": self.delta,
            "jitter": self.jitter,
            "client_city": self.client_city,
            "search_iterations": self.search_iterations,
            "pipeline_depth": self.pipeline_depth,
            "measurements": (
                asdict(self.measurements) if self.measurements is not None else None
            ),
            "faults": [asdict(fault) for fault in self.faults],
        }


@dataclass
class ScenarioResult:
    """Outcome of one scenario: live objects plus JSON-able metrics."""

    scenario: Scenario
    cluster: Any
    #: The observer replica's metrics; None until the cluster has run
    #: (``prepare_scenario`` hands out armed-but-unrun results).
    run_metrics: Optional[Observer]
    workload: Optional[Workload]
    #: The scenario's faults, armed against ``cluster`` in spec order;
    #: each reports in ``fault_activity`` once it has fired (fault-free
    #: scenarios' metrics JSON is therefore unchanged).
    armed_faults: List[ArmedFault] = field(default_factory=list)

    def metrics(self) -> Dict[str, Any]:
        duration = self.scenario.duration
        out: Dict[str, Any] = {
            "scenario": self.scenario.describe(),
            "throughput_rps": self.run_metrics.throughput(duration),
            "committed_requests": self.run_metrics.total_requests(),
            "committed_blocks": self.run_metrics.committed_blocks(),
            "reconfigurations": self.reconfiguration_count(),
            "messages_sent": self.cluster.network.stats.messages_sent,
            "messages_delivered": self.cluster.network.stats.messages_delivered,
            "bytes_sent": self.cluster.network.stats.bytes_sent,
        }
        # Either observer: the exact summary reproduces the historical
        # inline computation bit-for-bit, so golden files are unchanged.
        commit_latency = self.run_metrics.latency_summary()
        if commit_latency is not None:
            out["commit_latency"] = commit_latency
        if self.workload is not None:
            out["client"] = self.workload.summary()
        activity = [fault.summary() for fault in self.armed_faults if fault.fired]
        if activity:
            out["fault_activity"] = activity
        # Absent while the store never engaged (every run below
        # ``Network.block_fanout``), so golden files and every
        # pre-existing consumer see byte-identical output.
        network = self.cluster.network
        if any(network.stats.plane.values()):
            # What the drains did (see NetworkStats.plane): same seed,
            # same counts -- but how a run is sliced into run() calls
            # and checkpoints moves windows, folds and put-backs.
            out["plane"] = dict(network.stats.plane)
        return out

    def reconfiguration_count(self) -> int:
        # Only PBFT reconfigures (HotStuff and Kauri keep no such list).
        return len(getattr(self.cluster.replicas[0], "reconfigure_times", ()))

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.metrics(), sort_keys=True, indent=indent)


# ----------------------------------------------------------------------
# Resolution helpers
# ----------------------------------------------------------------------
def deployment_names() -> List[str]:
    """Everything ``resolve_deployment`` accepts: the named city sets,
    then the name patterns."""
    return sorted(NAMED_DEPLOYMENTS.values()) + [
        pattern for pattern, _ in DEPLOYMENT_PATTERNS
    ]


def resolve_deployment(name: str, seed: int = 0) -> Deployment:
    """Named city set, or ``world-N`` (or ``wonderproxy-N``) for a
    seeded random one."""
    match = _WORLD.match(name.lower())
    if match:
        kind, n = match.group(1), int(match.group(2))
        if n < 4:
            raise ValueError(f"{kind} deployments need >= 4 replicas")
        return random_world_deployment(n, random.Random(seed), name=name.lower())
    canonical = NAMED_DEPLOYMENTS.get(name.lower())
    if canonical is None:
        known = ", ".join(deployment_names())
        raise ValueError(f"unknown deployment {name!r} (known: {known})")
    return deployment_for(canonical)


def optitree_tree(
    deployment: Deployment, f: int, seed: int, search_iterations: int
):
    """The Fig. 9 OptiTree construction: one annealing search over the
    link-latency matrix, ranked with k = 2f+1 (§7.3)."""
    latency = deployment.latency.matrix_seconds() / 2.0
    n = deployment.n
    result = optitree_search(
        latency,
        n,
        f,
        candidates=frozenset(range(n)),
        u=0,
        rng=random.Random(seed),
        schedule=AnnealingSchedule(
            iterations=search_iterations, initial_temperature=0.05, cooling=0.9995
        ),
        k=2 * f + 1,
    )
    return result.best_state


def _resolve_workload(scenario: Scenario) -> Optional[Workload]:
    if isinstance(scenario.workload, Workload):
        if scenario.workload_params:
            raise ValueError(
                "workload_params only apply to named workloads; configure "
                "the Workload instance directly instead"
            )
        return scenario.workload
    if scenario.workload == "saturated":
        if scenario.workload_params:
            raise ValueError("'saturated' takes no workload params")
        return None
    return make_workload(scenario.workload, **scenario.workload_params)


# ----------------------------------------------------------------------
# Cluster construction
# ----------------------------------------------------------------------
#: Most configuration searches one scenario may schedule.  The cadence
#: runs one event per replica per search (each queues the next); the
#: default cadence over a day of simulated time is ~3,500.
_MAX_SEARCHES = 100_000


def _check_search_cadence(policy: MeasurementPolicy, horizon: float) -> None:
    """Refuse a search cadence whose chain in
    ``PbftCluster.schedule_measurements`` (``search_time +=
    search_period`` while ``search_time <= horizon``) cannot finish or
    would run more than :data:`_MAX_SEARCHES` searches.

    A step of at least one ulp of the horizon advances every
    ``search_time`` at or below it: ulps grow with magnitude and
    rounding is monotone.  ``horizon + search_period == horizon`` alone
    is not enough -- half an ulp advances an odd-mantissa horizon but
    rounds back to an even value below it.
    """
    first = policy.first_search_at
    if first > horizon:
        return  # no search is scheduled
    period = policy.search_period
    if period < math.ulp(horizon):
        raise ValueError(
            f"search_period={period!r} cannot advance the search time "
            f"at horizon {horizon!r}"
        )
    searches = (horizon - first) / period
    if searches > _MAX_SEARCHES:
        raise ValueError(
            f"search_period={period!r} schedules {searches:.0f} searches "
            f"between first_search_at={first!r} and horizon {horizon!r} "
            f"(at most {_MAX_SEARCHES})"
        )


def _build_cluster(
    scenario: Scenario, deployment: Deployment, workload: Optional[Workload]
):
    family, variant = PROTOCOLS[scenario.protocol]
    n = deployment.n
    f = (n - 1) // 3
    if family == "pbft":
        if workload is None:
            raise ValueError(
                "PBFT is client-driven; pick a client workload, not 'saturated'"
            )
        policy = scenario.measurements or MeasurementPolicy()
        horizon = policy.horizon if policy.horizon is not None else scenario.duration
        if variant != "static":
            _check_search_cadence(policy, horizon)
        cluster = PbftCluster(
            deployment,
            mode=variant,
            seed=scenario.seed,
            delta=scenario.delta,
            jitter=scenario.jitter,
            client_city_index=scenario.client_city,
            workload=workload,
        )
        if variant != "static":
            cluster.schedule_measurements(
                probe_at=policy.probe_at,
                publish_at=policy.publish_at,
                first_search_at=policy.first_search_at,
                search_period=policy.search_period,
                horizon=horizon,
            )
        return cluster
    if family == "hotstuff":
        if variant == "fixed":
            # Random fixed leader, per §7.4.
            leader = random.Random(scenario.seed).randrange(n)
            cluster = HotStuffCluster(
                deployment,
                leader_mode="fixed",
                fixed_leader=leader,
                seed=scenario.seed,
                jitter=scenario.jitter,
            )
        else:
            cluster = HotStuffCluster(
                deployment, leader_mode="rr", seed=scenario.seed,
                jitter=scenario.jitter,
            )
        if workload is not None:
            cluster.attach_workload(workload, client_city=scenario.client_city or 0)
        return cluster
    # family == "kauri"
    if variant == "random-tree":
        tree = KauriReconfigurer(n, rng=random.Random(scenario.seed)).tree_for_bin(0)
        depth = (
            scenario.pipeline_depth
            if scenario.pipeline_depth is not None
            else PIPELINE_DEPTH
        )
    else:
        tree = optitree_tree(deployment, f, scenario.seed, scenario.search_iterations)
        if scenario.pipeline_depth is not None:
            depth = scenario.pipeline_depth
        else:
            depth = 1 if variant == "optitree-nopipe" else PIPELINE_DEPTH
    cluster = KauriCluster(
        deployment,
        tree,
        pipeline_depth=depth,
        seed=scenario.seed,
        jitter=scenario.jitter,
        delta=scenario.delta,
    )
    if workload is not None:
        cluster.attach_workload(workload, client_city=scenario.client_city or 0)
    return cluster


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def prepare_scenario(scenario: Scenario) -> ScenarioResult:
    """Build everything a scenario needs without running it.

    Returns a :class:`ScenarioResult` whose cluster is armed (faults
    scheduled, workload resolved, exact metrics) but whose
    simulation has not advanced -- the campaign plane drives it in
    slices; :func:`run_scenario` drives it to completion in one call.
    """
    if scenario.protocol not in PROTOCOLS:
        known = ", ".join(sorted(PROTOCOLS))
        raise ValueError(
            f"unknown protocol {scenario.protocol!r} (known: {known})"
        )
    if (
        PROTOCOLS[scenario.protocol] == ("pbft", "optiaware")
        and scenario.delta < 1.0 + scenario.jitter
    ):
        warnings.warn(
            f"delta={scenario.delta} is below 1 + jitter={1.0 + scenario.jitter}: "
            "fault-free jittered arrivals exceed delta*d_m, so expect a "
            "suspicion storm (slow, memory grows with the log); curated "
            "scenarios use delta=1.25",
            RuntimeWarning,
            stacklevel=2,
        )
    deployment = resolve_deployment(scenario.deployment, seed=scenario.seed)
    workload = _resolve_workload(scenario)
    cluster = _build_cluster(scenario, deployment, workload)
    return ScenarioResult(
        scenario=scenario,
        cluster=cluster,
        run_metrics=None,
        workload=workload,
        armed_faults=arm_faults(scenario.faults, cluster),
    )


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Execute one scenario end-to-end, deterministically under its seed."""
    result = prepare_scenario(scenario)
    result.run_metrics = result.cluster.run(scenario.duration)
    return result
