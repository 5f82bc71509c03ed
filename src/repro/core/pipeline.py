"""Per-replica wiring of OptiLog's sensors and monitors (Figs. 1-3).

An :class:`OptiLogPipeline` instantiates, for one replica, the four
sensor/monitor pairs of §4.2 and connects them:

* committed suspicions feed back into the SuspicionSensor so it can
  reciprocate (condition (c));
* the SuspicionMonitor chains into the ConfigMonitor so a candidate-set
  update re-checks the current configuration's validity;
* the ConfigSensor reads ``(K, u)`` from the SuspicionMonitor and the
  latency matrix from the LatencyMonitor (local-monitor input, the dashed
  arrow of Fig. 2).

The configuration stage is protocol-specific, so it is attached later via
:meth:`attach_config` (OptiAware and OptiTree each bring their own score,
search and validator).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core.config import ConfigMonitor, ConfigSensor, ReconfigurationDecision
from repro.core.latency import LatencyMonitor, LatencySensor
from repro.core.log import AppendOnlyLog
from repro.core.misbehavior import MisbehaviorMonitor, MisbehaviorSensor
from repro.core.records import SuspicionRecord
from repro.core.roundplan import RoundPlan
from repro.core.sensor import SensorApp
from repro.core.suspicion import SuspicionMonitor, SuspicionSensor
from repro.crypto.signatures import KeyRegistry


@dataclass
class PipelineSettings:
    """Knobs shared by all pipeline components.

    Attributes mirror the paper's parameters: ``delta`` is the timer
    multiplier δ, ``stability_window`` the aging window ``w`` (views),
    ``improvement_factor`` the score ratio required to replace a valid
    configuration.
    """

    n: int
    f: int
    delta: float = 1.0
    stability_window: int = 10
    improvement_factor: float = 0.9
    exact_mis_threshold: int = 25
    clock_skew: float = 0.0
    seed: int = 0


class OptiLogPipeline:
    """All OptiLog components of a single replica, wired together."""

    def __init__(
        self,
        replica_id: int,
        settings: PipelineSettings,
        registry: Optional[KeyRegistry] = None,
        propose: Optional[Callable[[Any], None]] = None,
        suspicion_monitor_factory: Optional[Callable[..., SuspicionMonitor]] = None,
    ):
        self.replica_id = replica_id
        self.settings = settings
        self.registry = registry or KeyRegistry(settings.n)
        self.log = AppendOnlyLog()
        self.app = SensorApp(replica_id, propose=propose)
        self.rng = random.Random((settings.seed, replica_id).__repr__())

        # Sensors (non-deterministic, local).
        self.latency_sensor = LatencySensor(replica_id, settings.n, self.app)
        self.misbehavior_sensor = MisbehaviorSensor(replica_id, self.app)
        self.suspicion_sensor = SuspicionSensor(
            replica_id,
            self.app,
            delta=settings.delta,
            clock_skew=settings.clock_skew,
        )

        # Monitors (deterministic, log-driven).
        self.latency_monitor = LatencyMonitor(replica_id, self.log, settings.n)
        self.misbehavior_monitor = MisbehaviorMonitor(
            replica_id, self.log, self.registry
        )
        factory = suspicion_monitor_factory or SuspicionMonitor
        self.suspicion_monitor = factory(
            replica_id,
            self.log,
            n=settings.n,
            f=settings.f,
            misbehavior=self.misbehavior_monitor,
            stability_window=settings.stability_window,
            exact_mis_threshold=settings.exact_mis_threshold,
        )

        # Condition (c): reciprocate committed suspicions against us.
        self.log.subscribe(SuspicionRecord, self._maybe_reciprocate)

        # The configuration stage is attached by the protocol integration.
        self.config_sensor: Optional[ConfigSensor] = None
        self.config_monitor: Optional[ConfigMonitor] = None

        #: (latency epoch, configuration, plan) -- see :meth:`round_plan`.
        #: A pure cache: never pickled, re-derived after a resume.
        self._plan_memo: Optional[tuple] = None

    def __getstate__(self):
        return {**self.__dict__, "_plan_memo": None}

    # ------------------------------------------------------------------
    # Wiring helpers
    # ------------------------------------------------------------------
    def _maybe_reciprocate(self, entry) -> None:
        self.suspicion_sensor.on_suspicion_logged(
            entry.record, view=self.log.current_view
        )

    def attach_config(
        self,
        search,
        score,
        validator,
        on_reconfigure: Optional[Callable[[ReconfigurationDecision], None]] = None,
    ) -> None:
        """Attach the protocol-specific configuration stage (§4.2.4)."""
        self.config_sensor = ConfigSensor(
            self.replica_id,
            self.app,
            search=search,
            score=score,
            candidate_provider=self.suspicion_monitor.estimate,
            rng=self.rng,
        )
        self.config_monitor = ConfigMonitor(
            self.replica_id,
            self.log,
            score=score,
            validator=validator,
            candidate_provider=self.suspicion_monitor.estimate,
            f=self.settings.f,
            on_reconfigure=on_reconfigure,
            improvement_factor=self.settings.improvement_factor,
        )
        # Candidate-set updates re-check the current configuration.
        self.suspicion_monitor.add_listener(self.config_monitor.recheck)

    # ------------------------------------------------------------------
    # Round plans
    # ------------------------------------------------------------------
    def round_plan(
        self, configuration: Any, compile_plan: Callable[[Any], RoundPlan]
    ) -> Optional[RoundPlan]:
        """This replica's :class:`RoundPlan` under ``configuration``
        (``None`` while the latency matrix is incomplete), compiled by
        ``compile_plan(configuration)`` once per (latency epoch,
        configuration): timeouts are a function of logged state."""
        monitor = self.latency_monitor
        if not monitor.is_complete():
            return None
        memo = self._plan_memo
        if (
            memo is None
            or memo[0] != monitor.epoch
            or (memo[1] is not configuration and memo[1] != configuration)
        ):
            memo = (monitor.epoch, configuration, compile_plan(configuration))
            self._plan_memo = memo
        return memo[2]

    # ------------------------------------------------------------------
    # Convenience passthroughs
    # ------------------------------------------------------------------
    def advance_view(self, view: int) -> None:
        """Propagate a view change to the log and the SuspicionMonitor."""
        self.log.advance_view(view)
        self.suspicion_monitor.advance_view(view)

    @property
    def candidates(self):
        return self.suspicion_monitor.candidates

    @property
    def u(self) -> int:
        return self.suspicion_monitor.u

    @property
    def latency_matrix(self):
        return self.latency_monitor.matrix
