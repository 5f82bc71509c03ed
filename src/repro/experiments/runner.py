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
* a **fault schedule** -- :class:`FaultSpec` entries (delay / δ-bounded /
  stealth delay attacks, crashes with revival, churn cycles, link-level
  partitions, probabilistic message loss, fabricated false suspicions)
  resolved against the live cluster at their start times;
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
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.consensus.base import RunMetrics
from repro.consensus.hotstuff import HotStuffCluster
from repro.consensus.kauri import KauriCluster
from repro.consensus.pbft import PbftCluster
from repro.core.records import SuspicionKind, SuspicionRecord
from repro.faults.churn import ChurnSchedule
from repro.faults.delay import DelayAttack, DeltaDelayAttack, StealthDelayAttack
from repro.faults.loss import MessageLoss
from repro.net.deployments import Deployment, deployment_for, random_world_deployment
from repro.optimize.annealing import AnnealingSchedule
from repro.sim.engine import SimClock
from repro.sim.network import MESSAGE_PLANES
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

_WONDERPROXY = re.compile(r"^wonderproxy-(\d+)$")

#: ``world-N[-jK]``: the wonderproxy city draw served by the
#: hierarchical (O(n + r^2)) latency substrate.  ``-jK`` jitters repeat
#: placements up to K route-km from their anchor.
_WORLD = re.compile(r"^world-(\d+)(?:-j(\d+))?$")

#: ``topo-N[-jK][@path]``: replicas over an internet topology
#: graph (GML or edge list at ``path``; the bundled example otherwise).
_TOPO = re.compile(r"^topo-(\d+)(?:-j(\d+))?(?:@(.+))?$")

#: The deployments built on demand from a name pattern, as (pattern,
#: description).  ``resolve_deployment``'s error text, the CLI's
#: ``--deployment`` help and ``repro list`` all read this one table
#: (the first two through ``deployment_names``).
DEPLOYMENT_PATTERNS = (
    ("wonderproxy-N", "seeded random world placement, N >= 4"),
    (
        "world-N[-jK]",
        "the same draw on the hierarchical O(n)-memory substrate, for n >= 512",
    ),
    (
        "topo-N[-jK][@path]",
        "replicas over an internet topology graph, GML or edge list",
    ),
)


#: Every fault kind the runner can schedule.
FAULT_KINDS = (
    "delay",
    "delta_delay",
    "crash",
    "churn",
    "partition",
    "loss",
    "false_suspicion",
)

#: Per-kind ``params`` vocabulary; an unknown key is a loud error so a
#: typo'd knob cannot silently leave an adversary unconfigured.
_FAULT_PARAMS: Dict[str, Tuple[str, ...]] = {
    "delay": (),
    "delta_delay": ("delta", "adaptive", "headroom"),
    "crash": (),
    "churn": ("period", "downtime", "victims", "random"),
    "partition": ("groups", "isolate"),
    "loss": ("rate", "senders"),
    "false_suspicion": ("target", "period", "rounds"),
}


@dataclass
class FaultSpec:
    """One scheduled adversarial behaviour, active ``[start, end]``.

    ``attacker`` is a replica id, a tuple of ids, or a role name resolved
    when the fault fires: ``"leader"`` (PBFT's current leader), ``"root"``
    (Kauri's tree root), ``"intermediates"`` (Kauri's internal tree
    nodes).  ``params`` carries kind-specific knobs:

    ============== =====================================================
    ``delay``      fixed ``extra_delay`` on ``message_types`` (Fig. 7)
    ``delta_delay`` link stretch by ``delta``; ``adaptive=True`` switches
                   to the stay-below-``δ·d_m`` stealth adversary with
                   ``headroom`` (Fig. 11 / §7.6)
    ``crash``      node down at ``start``; a finite ``end`` revives it
                   with catch-up
    ``churn``      crash/recover cycles: ``period``, ``downtime``,
                   ``victims`` (ids or ``"intermediates"``/``"all"``),
                   ``random`` victim choice
    ``partition``  link-level split: ``groups`` (iterables of ids) or
                   ``isolate`` (id or role); heals at ``end``
    ``loss``       drop probability ``rate``, optional ``senders`` filter
    ``false_suspicion`` fabricated ⟨Slow⟩ records from the ``attacker``
                   pool against ``target`` (Fig. 10's smear campaign),
                   one round every ``period`` s, up to ``rounds``
    ============== =====================================================
    """

    kind: str = "delay"
    start: float = 0.0
    end: float = math.inf
    attacker: Union[int, str, Tuple[int, ...]] = "leader"
    extra_delay: float = 0.5
    message_types: Optional[Tuple[str, ...]] = None
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} (known: {', '.join(FAULT_KINDS)})"
            )
        if self.start < 0:
            raise ValueError(
                f"fault start {self.start} is negative; simulation time "
                "starts at 0, so the pre-zero portion would silently never "
                "apply"
            )
        if self.end < self.start:
            raise ValueError(
                f"fault end {self.end} precedes start {self.start}"
            )
        if isinstance(self.message_types, str):
            # A bare string would iterate as characters inside DelayAttack
            # and silently never match any message type.
            self.message_types = (self.message_types,)
        elif isinstance(self.message_types, list):
            self.message_types = tuple(self.message_types)
        if self.message_types is not None:
            from repro.consensus import messages as protocol_messages

            for name in self.message_types:
                # A typo'd type would make the attack match nothing and
                # the experiment silently report healthy numbers.
                if not isinstance(getattr(protocol_messages, name, None), type):
                    raise ValueError(
                        f"unknown message type {name!r} in fault spec"
                    )
        allowed = _FAULT_PARAMS[self.kind]
        for key in self.params:
            if key not in allowed:
                raise ValueError(
                    f"unknown param {key!r} for fault kind {self.kind!r}"
                    f" (known: {', '.join(allowed) or 'none'})"
                )
        if self.kind == "loss":
            rate = self.params.get("rate")
            if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
                raise ValueError(f"loss fault needs params rate in [0, 1], got {rate!r}")
            senders = self.params.get("senders")
            if senders is not None:
                if isinstance(senders, int):
                    self.params["senders"] = (senders,)
                elif isinstance(senders, (tuple, list, set)) and all(
                    isinstance(node, int) for node in senders
                ):
                    self.params["senders"] = tuple(sorted(senders))
                else:
                    # set("leader") would silently match nothing.
                    raise ValueError(
                        f"loss senders must be replica ids, got {senders!r}"
                    )
        if self.kind == "partition":
            if ("groups" in self.params) == ("isolate" in self.params):
                raise ValueError(
                    "partition fault needs exactly one of params "
                    "'groups' (iterables of ids) or 'isolate' (id or role)"
                )
        if self.kind == "churn":
            for knob in ("period", "downtime"):
                value = self.params.get(knob)
                if value is not None and (
                    not isinstance(value, (int, float)) or value <= 0
                ):
                    raise ValueError(f"churn {knob} must be positive, got {value!r}")
        if self.kind == "delta_delay":
            delta = self.params.get("delta")
            if delta is not None and (
                not isinstance(delta, (int, float)) or delta <= 0
            ):
                raise ValueError(f"delta_delay delta must be positive, got {delta!r}")
        if self.kind == "false_suspicion":
            pool = (
                self.attacker
                if isinstance(self.attacker, (tuple, list))
                else (self.attacker,)
            )
            if not pool or not all(isinstance(a, int) for a in pool):
                raise ValueError(
                    "false_suspicion needs explicit attacker replica ids "
                    f"(the faulty pool), got {self.attacker!r}"
                )


def _concrete_attacker_ids(attacker: Union[int, str, Tuple[int, ...]]) -> Tuple[int, ...]:
    """The replica ids a spec names statically (roles resolve at fire time)."""
    if isinstance(attacker, int):
        return (attacker,)
    if isinstance(attacker, (tuple, list)):
        return tuple(a for a in attacker if isinstance(a, int))
    return ()


def validate_fault_composition(faults: Sequence["FaultSpec"]) -> None:
    """Reject fault *combinations* that would run but lie.

    Each :class:`FaultSpec` validates its own knobs; this checks the
    cross-spec invariants the adversary-synthesis compiler (and any
    hand-authored scenario) must respect:

    * **Overlapping crash windows on one replica** -- the second crash
      fires on an already-down node and its revival silently truncates
      or extends the first window, so the schedule that *ran* is not the
      schedule that was *written*.
    * **Revival inside a partition** -- crash recovery performs modeled
      state transfer from a live donor, ignoring partition reachability;
      a replica revived mid-split would read state across the cut.

    Raises ``ValueError`` naming the offending fault indices.  Called
    from ``Scenario.__post_init__`` so invalid compositions fail at
    construction, not as silently-wrong metrics.
    """
    crash_windows: Dict[int, List[Tuple[float, float, int]]] = {}
    partitions: List[Tuple[float, float, int]] = []
    for index, spec in enumerate(faults):
        if spec.kind == "crash":
            for victim in _concrete_attacker_ids(spec.attacker):
                crash_windows.setdefault(victim, []).append(
                    (spec.start, spec.end, index)
                )
        elif spec.kind == "partition":
            partitions.append((spec.start, spec.end, index))
    for victim, windows in sorted(crash_windows.items()):
        ordered = sorted(windows)
        for (s1, e1, i1), (s2, e2, i2) in zip(ordered, ordered[1:]):
            if s2 <= e1:
                raise ValueError(
                    f"faults[{i1}] and faults[{i2}] schedule overlapping "
                    f"crash windows [{s1}, {e1}] and [{s2}, {e2}] on "
                    f"replica {victim}; the later crash would fire on an "
                    "already-down node and its revival would silently "
                    "rewrite the first window"
                )
    for index, spec in enumerate(faults):
        if spec.kind != "crash" or not math.isfinite(spec.end):
            continue
        for p_start, p_end, p_index in partitions:
            if p_start < spec.end < p_end:
                raise ValueError(
                    f"faults[{index}] revives a crashed replica at "
                    f"t={spec.end} inside the partition of "
                    f"faults[{p_index}] [{p_start}, {p_end}]; crash "
                    "recovery's state transfer ignores partition "
                    "reachability, so the revived node would read state "
                    "across the split -- revive after the partition heals"
                )


#: How a scenario measures: the exact per-commit path or the O(1)-memory
#: streaming sketches.
METRICS_MODES = ("exact", "sketch")


@dataclass
class MeasurementPolicy:
    """Aware/OptiAware reconfiguration cadence (the Fig. 7 schedule):
    probe peers, publish latency vectors, then search periodically.

    Also selects the measurement plane: ``metrics="exact"`` (default)
    materialises every commit/latency sample; ``"sketch"`` streams them
    into the mergeable O(1)-memory sketches from :mod:`repro.metrics`
    (quantiles within the documented error bound).  The mode only
    observes the run: the same seed commits the same blocks either way.
    ``window`` fixes the throughput-timeline granularity and
    ``bins_per_decade`` the histogram resolution for the sketch mode.
    """

    probe_at: float = 5.0
    publish_at: float = 15.0
    first_search_at: float = 40.0
    search_period: float = 25.0
    horizon: Optional[float] = None  # defaults to the scenario duration
    metrics: str = "exact"
    window: float = 1.0
    bins_per_decade: int = 100

    def __post_init__(self) -> None:
        if self.metrics not in METRICS_MODES:
            raise ValueError(
                f"unknown metrics mode {self.metrics!r} "
                f"(known: {', '.join(METRICS_MODES)})"
            )
        if not (math.isfinite(self.window) and self.window > 0):
            raise ValueError(
                f"metrics window must be finite and > 0, got {self.window!r}"
            )
        if self.bins_per_decade < 1:
            raise ValueError(
                f"bins_per_decade must be >= 1, got {self.bins_per_decade!r}"
            )


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
    #: Message plane: ``"object"`` (exact; ``"columnar"`` is a synonym
    #: kept for older callers and result files) or ``"columnar-fast"``
    #: (relaxed, equivalent final metrics; scheduled faults downgrade it
    #: to exact -- see :func:`_effective_plane`).
    plane: str = "object"
    name: str = ""

    def __post_init__(self) -> None:
        if self.plane.startswith("check"):
            raise ValueError(
                f"plane={self.plane!r} is gone: the equivalence it asserted "
                "now lives in the test suite (tests/oracles.py: heap_only "
                "for 'check', assert_relaxed_equivalent for 'check-fast')"
            )
        if self.plane not in MESSAGE_PLANES:
            raise ValueError(
                f"unknown message plane {self.plane!r} "
                f"(known: {', '.join(MESSAGE_PLANES)})"
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
        """JSON-able identity of the scenario (what was run)."""
        workload = (
            self.workload if isinstance(self.workload, str) else self.workload.name
        )
        out = {
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
        # The exact plane, under either name, is omitted: golden files,
        # checkpoint scenario identity and every pre-existing describe()
        # consumer see byte-identical output.
        if self.plane not in ("object", "columnar"):
            out["plane"] = self.plane
        return out


@dataclass
class ScenarioResult:
    """Outcome of one scenario: live objects plus JSON-able metrics."""

    scenario: Scenario
    cluster: Any
    #: ``RunMetrics`` or a streaming twin; None until the cluster has run
    #: (``prepare_scenario`` hands out armed-but-unrun results).
    run_metrics: Optional[RunMetrics]
    workload: Optional[Workload]
    #: Live adversary objects created while the run executed, as
    #: ``(fault_index, kind, instrument)`` tuples -- empty for fault-free
    #: scenarios (whose metrics JSON is therefore unchanged).
    fault_instruments: List[Tuple[int, str, Any]] = field(default_factory=list)

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
        # Polymorphic over exact RunMetrics and the streaming twin: the
        # exact summary reproduces the historical inline computation
        # bit-for-bit, so fault-free golden files are unchanged.
        commit_latency = self.run_metrics.latency_summary()
        if commit_latency is not None:
            out["commit_latency"] = commit_latency
        if self.workload is not None:
            out["client"] = self.workload.summary()
        if self.fault_instruments:
            out["fault_activity"] = [
                self._instrument_summary(fault_index, kind, instrument)
                for fault_index, kind, instrument in sorted(
                    self.fault_instruments, key=lambda entry: entry[0]
                )
            ]
        # The plane describing what it did, not what was asked for.
        # Both keys are absent while the store never engaged (every
        # n < ``Network.block_fanout`` exact run), so golden files and
        # every pre-existing consumer see byte-identical output.
        network = self.cluster.network
        if self.scenario.plane == "columnar-fast" and network.plane != "columnar-fast":
            # _effective_plane downgraded a faulted scenario.
            out["effective_plane"] = network.plane
        if any(network.stats.plane.values()):
            # What the drains did (see NetworkStats.plane): same seed,
            # same counts -- but how a run is sliced into run() calls
            # and checkpoints moves windows, folds and put-backs.
            out["plane"] = dict(network.stats.plane)
        return out

    @staticmethod
    def _instrument_summary(fault_index: int, kind: str, instrument: Any) -> Dict[str, Any]:
        summary: Dict[str, Any] = {"fault": fault_index, "kind": kind}
        if kind in ("delay", "delta_delay"):
            summary["messages_delayed"] = instrument.messages_delayed
        elif kind == "loss":
            summary["messages_lost"] = instrument.messages_lost
            summary["messages_seen"] = instrument.messages_seen
        elif kind == "churn":
            summary["crashes"] = len(instrument.crashes)
            summary["revivals"] = len(instrument.revivals)
        elif kind == "crash":
            summary["victim"] = instrument.get("victim")
            if "revived_at" in instrument:
                summary["revived_at"] = instrument["revived_at"]
        elif kind == "partition":
            summary["groups"] = [list(group) for group in instrument]
        elif kind == "false_suspicion":
            summary["rounds_launched"] = instrument["rounds_launched"]
        return summary

    def reconfiguration_count(self) -> int:
        replicas = getattr(self.cluster, "replicas", None)
        if replicas and hasattr(replicas[0], "reconfigure_times"):
            return len(replicas[0].reconfigure_times)
        return 0

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
    """Named city set, ``wonderproxy-N`` for a seeded random one, or the
    hierarchical substrates ``world-N[-jK]`` / ``topo-N[-jK][@path]``
    (see :mod:`repro.net.hierarchy`)."""
    match = _WONDERPROXY.match(name.lower())
    if match:
        n = int(match.group(1))
        if n < 4:
            raise ValueError("wonderproxy deployments need >= 4 replicas")
        return random_world_deployment(
            n, random.Random(seed), name=f"wonderproxy-{n}"
        )
    match = _WORLD.match(name.lower())
    if match:
        n = int(match.group(1))
        if n < 4:
            raise ValueError("world deployments need >= 4 replicas")
        return random_world_deployment(
            n,
            random.Random(seed),
            name=name.lower(),
            hierarchical=True,
            jitter_km=float(match.group(2) or 0),
        )
    match = _TOPO.match(name)
    if match:
        from repro.net.topology_graph import topology_deployment

        n = int(match.group(1))
        if n < 4:
            raise ValueError("topo deployments need >= 4 replicas")
        return topology_deployment(
            n,
            random.Random(seed),
            name=name,
            path=match.group(3),
            jitter_km=float(match.group(2) or 0),
        )
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
def _effective_plane(scenario: Scenario) -> str:
    """The message plane the cluster will actually use.  A relaxed
    scenario with scheduled faults runs exact: the relaxed drain and its
    equivalence bound only cover pristine traffic.  (The exact plane
    needs no such rule: its store falls back per row the moment a fault
    lands.)"""
    if scenario.plane == "columnar-fast" and scenario.faults:
        return "object"
    return scenario.plane


def _build_cluster(
    scenario: Scenario, deployment: Deployment, workload: Optional[Workload]
):
    family, variant = PROTOCOLS[scenario.protocol]
    n = deployment.n
    f = (n - 1) // 3
    plane = _effective_plane(scenario)
    if family == "pbft":
        if workload is None:
            raise ValueError(
                "PBFT is client-driven; pick a client workload, not 'saturated'"
            )
        cluster = PbftCluster(
            deployment,
            mode=variant,
            seed=scenario.seed,
            delta=scenario.delta,
            jitter=scenario.jitter,
            client_city_index=scenario.client_city,
            workload=workload,
            plane=plane,
        )
        policy = scenario.measurements or MeasurementPolicy()
        if variant != "static":
            cluster.schedule_measurements(
                probe_at=policy.probe_at,
                publish_at=policy.publish_at,
                first_search_at=policy.first_search_at,
                search_period=policy.search_period,
                horizon=policy.horizon
                if policy.horizon is not None
                else scenario.duration,
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
                plane=plane,
            )
        else:
            cluster = HotStuffCluster(
                deployment, leader_mode="rr", seed=scenario.seed,
                jitter=scenario.jitter, plane=plane,
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
        plane=plane,
    )
    if workload is not None:
        cluster.attach_workload(workload, client_city=scenario.client_city or 0)
    return cluster


# ----------------------------------------------------------------------
# Fault scheduling
# ----------------------------------------------------------------------
def _resolve_attacker(attacker: Union[int, str], cluster) -> int:
    """One replica id from an id or a live-resolved role name."""
    if isinstance(attacker, int):
        return attacker
    if attacker == "leader":
        if hasattr(cluster, "current_leader"):
            return cluster.current_leader
        raise ValueError("'leader' fault target needs a PBFT cluster")
    if attacker == "root":
        if hasattr(cluster, "tree"):
            return cluster.tree.root
        raise ValueError("'root' fault target needs a Kauri cluster")
    raise ValueError(f"unknown fault target {attacker!r}")


def _resolve_attackers(attacker: Union[int, str, Tuple[int, ...]], cluster) -> List[int]:
    """A set of replica ids: id, tuple of ids, or a role name."""
    if isinstance(attacker, (tuple, list)):
        return [int(a) for a in attacker]
    if attacker == "intermediates":
        if hasattr(cluster, "tree"):
            return sorted(cluster.tree.intermediates)
        raise ValueError("'intermediates' fault target needs a Kauri cluster")
    return [_resolve_attacker(attacker, cluster)]


def _catch_up(cluster, victim: int) -> None:
    """Fast-forward a revived replica from the most advanced live peer.

    Models the state transfer every production BFT system performs on
    rejoin: the replica adopts committed state so it cannot propose stale
    sequence numbers, vote on heights it slept through, or follow a
    leader that was voted out while it was down.
    """
    replicas = getattr(cluster, "replicas", None)
    if not replicas:
        return
    network = cluster.network
    peers = [
        replica
        for replica in replicas
        if replica.id != victim and not network.is_down(replica.id)
    ]
    if not peers:
        return
    replica = replicas[victim]
    if hasattr(replica, "next_height"):  # Kauri / OptiTree
        donor = max(peers, key=lambda peer: peer.committed_height)
        # Blocks the victim proposed into the void while down are dead
        # (every send from a down node is dropped): hand their stranded
        # requests to the live root, exactly as a tree change does.
        # N.B. a revived *root* additionally needs a reconfiguration
        # (Fig. 15's install_tree) before it proposes again; catch-up
        # restores state, it does not resurrect a stalled pipeline.
        recovered = (
            cluster._uncommitted_requests(replica)
            if hasattr(cluster, "_uncommitted_requests")
            else []
        )
        replica.next_height = max(replica.next_height, donor.next_height)
        replica.committed_height = max(
            replica.committed_height, donor.committed_height
        )
        replica._claimed_requests |= donor._claimed_requests
        replica._claimed_requests_old |= donor._claimed_requests_old
        if recovered:
            root = replicas[cluster.tree.root]
            for request in recovered:
                key = (request.client_id, request.request_id)
                root._claimed_requests.discard(key)
                root._claimed_requests_old.discard(key)
            root.pending_requests.extend(recovered)
    elif hasattr(replica, "high_qc"):  # HotStuff
        donor = max(peers, key=lambda peer: peer.committed_height)
        replica.committed_height = max(replica.committed_height, donor.committed_height)
        # A replica holds blocks only until they commit, so the donor's
        # map is its uncommitted suffix; what the victim itself held at
        # or below the adopted commit point is retired with it.
        blocks = replica.block_at_height
        blocks.update(donor.block_at_height)
        for height in [h for h in blocks if h <= replica.committed_height]:
            del blocks[height]
        replica.last_voted_height = max(
            replica.last_voted_height, donor.last_voted_height
        )
        if donor.high_qc is not None and (
            replica.high_qc is None or donor.high_qc.view > replica.high_qc.view
        ):
            replica.high_qc = donor.high_qc
        replica._claimed_requests |= donor._claimed_requests
        replica._claimed_requests_old |= donor._claimed_requests_old
    elif hasattr(replica, "executed_seq"):  # PBFT
        donor = max(peers, key=lambda peer: peer.executed_seq)
        replica.config = donor.config
        replica.pending_config = None
        replica.seq = max(replica.seq, donor.seq)
        replica.executed_seq = max(replica.executed_seq, donor.executed_seq)
        replica._committed_requests |= donor._committed_requests
        replica._committed_requests_old |= donor._committed_requests_old
        replica.in_flight = None
        if replica.optilog is not None and donor.optilog is not None:
            # Replay the committed records the replica slept through, so
            # its monitors converge with the fleet (the log is a prefix
            # of the donor's: commit order is total).
            mine = replica.optilog.pipeline.log
            theirs = donor.optilog.pipeline.log
            for entry in list(theirs)[len(mine):]:
                mine.append(entry.record, view=entry.view)


def _partition_groups(spec: FaultSpec, cluster) -> List[List[int]]:
    if "groups" in spec.params:
        return [[int(node) for node in group] for group in spec.params["groups"]]
    victim = _resolve_attacker(spec.params["isolate"], cluster)
    others = [node for node in range(cluster.n) if node != victim]
    return [[victim], others]


def _churn_pool(spec: FaultSpec, cluster) -> List[int]:
    victims = spec.params.get("victims", "all")
    if victims == "all":
        return list(range(cluster.n))
    return _resolve_attackers(victims, cluster)


class _CatchUp:
    """Picklable ``on_revive`` hook: fast-forward a revived node."""

    __slots__ = ("cluster",)

    def __init__(self, cluster):
        self.cluster = cluster

    def __call__(self, victim: int) -> None:
        _catch_up(self.cluster, victim)


class _FaultDriver:
    """Base for scheduled fault actions.

    Plain classes, not closures: armed faults live in the simulator's
    event heap, which the campaign plane checkpoints with pickle.
    Role names still resolve when the driver *fires*, preserving the
    "whoever leads at that moment" semantics.
    """

    __slots__ = ("spec", "cluster", "index", "instruments")

    def __init__(self, spec: FaultSpec, cluster, index: int, instruments: List):
        self.spec = spec
        self.cluster = cluster
        self.index = index
        self.instruments = instruments


class _DelayLauncher(_FaultDriver):
    __slots__ = ("clock",)

    def __init__(self, spec, cluster, index, instruments, clock):
        super().__init__(spec, cluster, index, instruments)
        self.clock = clock

    def __call__(self) -> None:
        spec = self.spec
        attack = DelayAttack(
            attacker=_resolve_attacker(spec.attacker, self.cluster),
            message_types=spec.message_types or ("PrePrepare",),
            extra_delay=spec.extra_delay,
            start=spec.start,
            end=spec.end,
            now_fn=self.clock,
        )
        self.cluster.network.add_interceptor(attack)
        self.instruments.append((self.index, "delay", attack))


class _DeltaLauncher(_FaultDriver):
    __slots__ = ("clock",)

    def __init__(self, spec, cluster, index, instruments, clock):
        super().__init__(spec, cluster, index, instruments)
        self.clock = clock

    def __call__(self) -> None:
        spec = self.spec
        params = spec.params
        network = self.cluster.network
        attackers = _resolve_attackers(spec.attacker, self.cluster)
        delta = params.get("delta", 1.2)
        if params.get("adaptive", False):
            attack = StealthDelayAttack(
                attackers,
                delta,
                expected_delay=network.one_way_delay,
                headroom=params.get("headroom", 0.95),
                message_types=spec.message_types,
                start=spec.start,
                end=spec.end,
                now_fn=self.clock,
            )
        else:
            attack = DeltaDelayAttack(
                attackers,
                delta,
                message_types=spec.message_types or ("Forward", "AggregateVote"),
                start=spec.start,
                end=spec.end,
                now_fn=self.clock,
            )
        network.add_interceptor(attack)
        self.instruments.append((self.index, "delta_delay", attack))


class _CrashLauncher(_FaultDriver):
    __slots__ = ("state",)

    def __init__(self, spec, cluster, index, instruments, state):
        super().__init__(spec, cluster, index, instruments)
        self.state = state

    def __call__(self) -> None:
        victim = _resolve_attacker(self.spec.attacker, self.cluster)
        self.cluster.network.set_down(victim)
        self.state["victim"] = victim
        self.instruments.append((self.index, "crash", self.state))


class _CrashReviver(_FaultDriver):
    __slots__ = ("state",)

    def __init__(self, spec, cluster, index, instruments, state):
        super().__init__(spec, cluster, index, instruments)
        self.state = state

    def __call__(self) -> None:
        victim = self.state.get("victim")
        if victim is not None:
            cluster = self.cluster
            cluster.network.set_down(victim, False)
            _catch_up(cluster, victim)
            self.state["revived_at"] = cluster.sim.now


class _ChurnLauncher(_FaultDriver):
    __slots__ = ("rng",)

    def __init__(self, spec, cluster, index, instruments, rng):
        super().__init__(spec, cluster, index, instruments)
        self.rng = rng

    def __call__(self) -> None:
        spec = self.spec
        cluster = self.cluster
        sim = cluster.sim
        schedule = ChurnSchedule(
            sim, cluster.network, on_revive=_CatchUp(cluster)
        )
        schedule.cycle(
            _churn_pool(spec, cluster),
            period=spec.params.get("period", 10.0),
            downtime=spec.params.get("downtime", 3.0),
            start=sim.now,
            end=spec.end,
            rng=self.rng,
        )
        self.instruments.append((self.index, "churn", schedule))


class _PartitionLauncher(_FaultDriver):
    __slots__ = ("state",)

    def __init__(self, spec, cluster, index, instruments, state):
        super().__init__(spec, cluster, index, instruments)
        self.state = state

    def __call__(self) -> None:
        groups = _partition_groups(self.spec, self.cluster)
        self.state["epoch"] = self.cluster.network.partition(groups)
        self.instruments.append((self.index, "partition", groups))


class _PartitionHealer(_FaultDriver):
    __slots__ = ("state",)

    def __init__(self, spec, cluster, index, instruments, state):
        super().__init__(spec, cluster, index, instruments)
        self.state = state

    def __call__(self) -> None:
        # The epoch keeps overlapping partition specs honest: if a
        # later spec re-partitioned the network, this heal is a no-op
        # rather than wiping the newer partition early.
        if "epoch" in self.state:
            self.cluster.network.heal(self.state["epoch"])


class _SuspicionDriver(_FaultDriver):
    __slots__ = ("counters", "pool", "period", "rounds")

    def __init__(self, spec, cluster, index, instruments, counters, pool,
                 period, rounds):
        super().__init__(spec, cluster, index, instruments)
        self.counters = counters
        self.pool = pool
        self.period = period
        self.rounds = rounds

    def __call__(self, round_index: int) -> None:
        cluster = self.cluster
        sim = cluster.sim
        attacker = self.pool[round_index % len(self.pool)]
        target = _resolve_attacker(
            self.spec.params.get("target", "leader"), cluster
        )
        if target == attacker:
            # Self-suspicions are dropped by the monitor; smear the
            # next replica instead so the round is not wasted.
            target = (target + 1) % cluster.n
        replica = cluster.replicas[attacker]
        # The full power of a Byzantine replica: log any measurement
        # it likes.  The fabricated ⟨Slow⟩ rides the normal record
        # path (gossip -> leader block -> commit); once committed,
        # the correct target reciprocates (condition (c)) and the
        # resulting edge degrades the candidate set K.
        record = SuspicionRecord(
            reporter=attacker,
            suspect=target,
            kind=SuspicionKind.SLOW,
            round_id=1_000_000 + self.counters["rounds_launched"],
            msg_type="write",
            phase=2,
            view=replica.log_view,
        )
        replica._gossip_record(record)
        self.counters["rounds_launched"] += 1
        if (
            round_index + 1 < self.rounds
            and sim.now + self.period <= self.spec.end
        ):
            sim.schedule(self.period, self, round_index + 1)


def _schedule_fault(spec: FaultSpec, cluster, index: int, instruments: List) -> None:
    """Arm one FaultSpec against the live cluster.

    Role names resolve when the fault *fires* (``schedule_at(start, ...)``),
    so ``attacker="leader"`` means whoever leads at that moment.  Any
    private randomness (loss draws, random churn victims) is derived here,
    at scheduling time, in fault-list order -- scenarios without such
    faults perform no extra ``derive_rng`` calls and stay bit-identical.
    Every scheduled action is a picklable driver class, so armed faults
    survive simulator checkpoints.
    """
    sim = cluster.sim
    network = cluster.network
    params = spec.params
    clock = SimClock(sim)

    if spec.kind == "delay":
        sim.schedule_at(
            spec.start, _DelayLauncher(spec, cluster, index, instruments, clock)
        )

    elif spec.kind == "delta_delay":
        sim.schedule_at(
            spec.start, _DeltaLauncher(spec, cluster, index, instruments, clock)
        )

    elif spec.kind == "crash":
        state: Dict[str, Any] = {}
        sim.schedule_at(
            spec.start, _CrashLauncher(spec, cluster, index, instruments, state)
        )
        if spec.end != math.inf:
            sim.schedule_at(
                spec.end, _CrashReviver(spec, cluster, index, instruments, state)
            )

    elif spec.kind == "churn":
        churn_rng = (
            sim.derive_rng(f"fault-{index}-churn")
            if params.get("random", False)
            else None
        )
        sim.schedule_at(
            spec.start, _ChurnLauncher(spec, cluster, index, instruments, churn_rng)
        )

    elif spec.kind == "partition":
        partition_state: Dict[str, Any] = {}
        sim.schedule_at(
            spec.start,
            _PartitionLauncher(spec, cluster, index, instruments, partition_state),
        )
        if spec.end != math.inf:
            sim.schedule_at(
                spec.end,
                _PartitionHealer(spec, cluster, index, instruments, partition_state),
            )

    elif spec.kind == "loss":
        attack = MessageLoss(
            rate=params["rate"],
            rng=sim.derive_rng(f"fault-{index}-loss"),
            senders=params.get("senders"),
            message_types=spec.message_types,
            start=spec.start,
            end=spec.end,
            now_fn=clock,
        )
        network.add_interceptor(attack)
        instruments.append((index, "loss", attack))

    elif spec.kind == "false_suspicion":
        if getattr(cluster.replicas[0], "optilog", None) is None:
            raise ValueError(
                "false_suspicion faults need an OptiLog-bearing cluster "
                "(protocol pbft-aware or pbft-optiaware)"
            )
        pool = (
            list(spec.attacker)
            if isinstance(spec.attacker, (tuple, list))
            else [spec.attacker]
        )
        period = params.get("period", 10.0)
        rounds = params.get("rounds", len(pool))
        counters = {"rounds_launched": 0}
        instruments.append((index, "false_suspicion", counters))
        driver = _SuspicionDriver(
            spec, cluster, index, instruments, counters, pool, period, rounds
        )
        sim.schedule_at(spec.start, driver, 0)

    else:  # pragma: no cover - __post_init__ rejects unknown kinds
        raise ValueError(f"unknown fault kind {spec.kind!r}")


# ----------------------------------------------------------------------
# Measurement plane selection
# ----------------------------------------------------------------------
def _apply_measurement_mode(scenario: Scenario, cluster) -> None:
    """``sketch`` mode: swap replicas (and the workload) off the
    per-commit lists and onto the streaming sketches."""
    policy = scenario.measurements
    if policy is None or policy.metrics == "exact":
        return
    from repro.metrics import MetricsSketch, StreamingRunMetrics

    def make_sketch():
        return MetricsSketch(
            bins_per_decade=policy.bins_per_decade, window=policy.window
        )

    for replica in cluster.replicas:
        replica.use_metrics(StreamingRunMetrics(make_sketch()))
    workload = getattr(cluster, "workload", None)
    if workload is not None:
        workload.enable_streaming(make_sketch())


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def prepare_scenario(scenario: Scenario) -> ScenarioResult:
    """Build everything a scenario needs without running it.

    Returns a :class:`ScenarioResult` whose cluster is armed (faults
    scheduled, measurement mode applied, workload resolved) but whose
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
    _apply_measurement_mode(scenario, cluster)
    instruments: List[Tuple[int, str, Any]] = []
    for index, fault in enumerate(scenario.faults):
        _schedule_fault(fault, cluster, index, instruments)
    return ScenarioResult(
        scenario=scenario,
        cluster=cluster,
        run_metrics=None,
        workload=workload,
        fault_instruments=instruments,
    )


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Execute one scenario end-to-end, deterministically under its seed."""
    result = prepare_scenario(scenario)
    result.run_metrics = result.cluster.run(scenario.duration)
    return result
