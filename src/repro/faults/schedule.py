"""The scenario-level fault vocabulary, and arming it against a cluster.

A :class:`FaultSpec` declares one adversarial behaviour (kind, window,
attacker, kind-specific params); :func:`validate_fault_composition`
rejects combinations that would run but lie.  The scenario runner arms
each spec with :func:`arm_faults` once the cluster is built, and the
resulting :class:`ArmedFault` does the rest: it switches the fault on at
``start`` -- resolving role names such as ``"leader"`` then -- switches
it off at ``end`` where the kind has an off action (crash revival,
partition heal), and reports its ``fault_activity`` entry once it has
fired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.records import SuspicionKind, SuspicionRecord
from repro.faults.churn import ChurnSchedule
from repro.faults.delay import DelayAttack, DeltaDelayAttack, StealthDelayAttack
from repro.faults.loss import MessageLoss
from repro.sim.engine import SimClock

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


def validate_fault_composition(faults: Sequence[FaultSpec]) -> None:
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


# ----------------------------------------------------------------------
# Role resolution (at fire time)
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


# ----------------------------------------------------------------------
# Arming
# ----------------------------------------------------------------------
class ArmedFault:
    """One :class:`FaultSpec` armed against a live cluster.

    Arming schedules what the kind needs: :meth:`start` at ``start``,
    and :meth:`stop` at a finite ``end`` for the two kinds with an off
    action (crash, partition); the first :meth:`smear` round for
    ``false_suspicion``.  Loss needs no event: its interceptor carries
    its own window and is installed now.  Private randomness (loss
    draws, random churn victims) is derived now too, in fault-list
    order, so scenarios without such faults make no extra
    ``derive_rng`` call and stay bit-identical.

    Slots and bound methods, no closures: armed faults sit in the
    simulator's event heap, which campaign checkpoints pickle.
    """

    __slots__ = ("spec", "index", "cluster", "rng", "live", "epoch")

    def __init__(self, spec: FaultSpec, index: int, cluster) -> None:
        self.spec = spec
        self.index = index
        self.cluster = cluster
        #: Random churn victims draw from this stream (else None).
        self.rng = None
        #: What :meth:`summary` reads, None until the fault fires: the
        #: live adversary (delay or loss interceptor, churn schedule) or
        #: the facts its firing recorded (crash victim, partition groups,
        #: smear rounds).
        self.live: Any = None
        #: The network's partition epoch, so a heal never undoes a newer
        #: partition.
        self.epoch: Optional[int] = None
        sim = cluster.sim
        kind = spec.kind
        if kind == "loss":
            self.live = MessageLoss(
                rate=spec.params["rate"],
                rng=sim.derive_rng(f"fault-{index}-loss"),
                senders=spec.params.get("senders"),
                message_types=spec.message_types,
                start=spec.start,
                end=spec.end,
                now_fn=SimClock(sim),
            )
            cluster.network.add_interceptor(self.live)
        elif kind == "false_suspicion":
            if getattr(cluster.replicas[0], "optilog", None) is None:
                raise ValueError(
                    "false_suspicion faults need an OptiLog-bearing cluster "
                    "(protocol pbft-aware or pbft-optiaware)"
                )
            self.live = {"rounds_launched": 0}
            sim.schedule_at(spec.start, self.smear, 0)
        else:
            if kind == "churn" and spec.params.get("random", False):
                self.rng = sim.derive_rng(f"fault-{index}-churn")
            sim.schedule_at(spec.start, self.start)
            if kind in ("crash", "partition") and spec.end != math.inf:
                sim.schedule_at(spec.end, self.stop)

    @property
    def fired(self) -> bool:
        return self.live is not None

    def start(self) -> None:
        """Switch the fault on; role names resolve to whoever holds the
        role at this moment."""
        spec = self.spec
        cluster = self.cluster
        sim = cluster.sim
        network = cluster.network
        params = spec.params
        kind = spec.kind
        if kind == "delay":
            live = DelayAttack(
                attacker=_resolve_attacker(spec.attacker, cluster),
                message_types=spec.message_types or ("PrePrepare",),
                extra_delay=spec.extra_delay,
                start=spec.start,
                end=spec.end,
                now_fn=SimClock(sim),
            )
            network.add_interceptor(live)
        elif kind == "delta_delay":
            attackers = _resolve_attackers(spec.attacker, cluster)
            delta = params.get("delta", 1.2)
            if params.get("adaptive", False):
                live = StealthDelayAttack(
                    attackers,
                    delta,
                    expected_delay=network.one_way_delay,
                    headroom=params.get("headroom", 0.95),
                    message_types=spec.message_types,
                    start=spec.start,
                    end=spec.end,
                    now_fn=SimClock(sim),
                )
            else:
                live = DeltaDelayAttack(
                    attackers,
                    delta,
                    message_types=spec.message_types or ("Forward", "AggregateVote"),
                    start=spec.start,
                    end=spec.end,
                    now_fn=SimClock(sim),
                )
            network.add_interceptor(live)
        elif kind == "crash":
            victim = _resolve_attacker(spec.attacker, cluster)
            network.set_down(victim)
            live = {"victim": victim}
        elif kind == "churn":
            live = ChurnSchedule(sim, network, on_revive=cluster.catch_up)
            live.cycle(
                _churn_pool(spec, cluster),
                period=params.get("period", 10.0),
                downtime=params.get("downtime", 3.0),
                start=sim.now,
                end=spec.end,
                rng=self.rng,
            )
        else:  # partition
            groups = _partition_groups(spec, cluster)
            self.epoch = network.partition(groups)
            live = {"groups": groups}
        self.live = live

    def stop(self) -> None:
        """Switch the fault off: revive the crashed replica through state
        transfer, or heal the partition (a no-op if a later partition
        superseded this one)."""
        cluster = self.cluster
        if self.spec.kind == "crash":
            victim = self.live["victim"]
            cluster.network.set_down(victim, False)
            cluster.catch_up(victim)
            self.live["revived_at"] = cluster.sim.now
        else:
            cluster.network.heal(self.epoch)

    def smear(self, round_index: int) -> None:
        """One false-suspicion round: the next pool member logs a
        fabricated ⟨Slow⟩ against the target, and the next round follows
        ``period`` s later while rounds and the window last."""
        spec = self.spec
        cluster = self.cluster
        sim = cluster.sim
        pool = (
            spec.attacker
            if isinstance(spec.attacker, (tuple, list))
            else (spec.attacker,)
        )
        attacker = pool[round_index % len(pool)]
        target = _resolve_attacker(spec.params.get("target", "leader"), cluster)
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
            round_id=1_000_000 + self.live["rounds_launched"],
            msg_type="write",
            phase=2,
            view=replica.log_view,
        )
        replica._gossip_record(record)
        self.live["rounds_launched"] += 1
        period = spec.params.get("period", 10.0)
        if (
            round_index + 1 < spec.params.get("rounds", len(pool))
            and sim.now + period <= spec.end
        ):
            sim.schedule(period, self.smear, round_index + 1)

    def summary(self) -> Dict[str, Any]:
        """This fault's ``fault_activity`` entry (once it has fired)."""
        kind = self.spec.kind
        live = self.live
        out: Dict[str, Any] = {"fault": self.index, "kind": kind}
        if kind in ("delay", "delta_delay"):
            out["messages_delayed"] = live.messages_delayed
        elif kind == "loss":
            out["messages_lost"] = live.messages_lost
            out["messages_seen"] = live.messages_seen
        elif kind == "churn":
            out["crashes"] = len(live.crashes)
            out["revivals"] = len(live.revivals)
        else:  # crash, partition, false_suspicion
            out.update(live)
        return out


def arm_faults(faults: Sequence[FaultSpec], cluster) -> List[ArmedFault]:
    """Arm every spec against ``cluster``, in list order."""
    return [ArmedFault(spec, index, cluster) for index, spec in enumerate(faults)]
