"""Configuration sensor and monitor (§4.2.4).

The ConfigSensor *searches* for a better configuration -- possibly
non-deterministically (simulated annealing) and possibly over a partition
of the search space (collaborative optimization) -- and proposes its best
find to the log.  The ConfigMonitor *selects* deterministically among
committed proposals: it validates each proposal (special roles must come
from the candidate set ``K``), re-computes its score from the shared
monitors (which is what holds proposers accountable for inflated claims),
waits for ``f+1`` proposals when the current configuration is invalid, and
requires a significant improvement before replacing a still-valid one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.core.log import AppendOnlyLog, LogEntry
from repro.core.monitor import Monitor
from repro.core.records import Configuration, ConfigProposalRecord
from repro.core.sensor import Sensor, SensorApp

# A score function evaluates a configuration against the current metric
# state; lower is better and ``inf`` marks an infeasible configuration.
ScoreFn = Callable[[Configuration], float]
# A search function produces a configuration given (candidates, u, rng).
SearchFn = Callable[[FrozenSet[int], int, random.Random], Optional[Configuration]]


class ConfigSensor(Sensor):
    """Searches for configurations and proposes them (§4.2.4).

    The actual search strategy is injected: protocol integrations supply
    a ``search`` built on their score function (exhaustive for Aware-size
    cliques, simulated annealing for trees).  The sensor reads ``K`` and
    ``u`` from the local SuspicionMonitor through ``candidate_provider``
    -- sensor reading local monitors is the dashed arrow in Fig. 2.
    """

    name = "config-sensor"

    def __init__(
        self,
        replica_id: int,
        app: SensorApp,
        search: SearchFn,
        score: ScoreFn,
        candidate_provider: Callable[[], Tuple[FrozenSet[int], int]],
        rng: Optional[random.Random] = None,
    ):
        super().__init__(replica_id, app)
        self._search = search
        self._score = score
        self._candidates = candidate_provider
        self.rng = rng or random.Random(replica_id)
        self.searches_run = 0

    def search_and_propose(
        self, view: int = 0, basis_seq: int = -1
    ) -> Optional[ConfigProposalRecord]:
        """Run one search and propose the best configuration found.

        Returns None when the search finds nothing feasible (e.g. the
        candidate set is too small for the topology).
        """
        candidates, u = self._candidates()
        self.searches_run += 1
        configuration = self._search(candidates, u, self.rng)
        if configuration is None:
            return None
        score = self._score(configuration)
        if math.isinf(score):
            return None
        record = ConfigProposalRecord(
            proposer=self.replica_id,
            configuration=configuration,
            claimed_score=score,
            view=view,
            basis_seq=basis_seq,
        )
        self.record(record)
        return record


@dataclass
class ReconfigurationDecision:
    """Outcome the ConfigMonitor hands to the RSM."""

    configuration: Configuration
    score: float
    proposer: int
    reason: str  # "invalid-current" or "improvement"


class ConfigMonitor(Monitor):
    """Selects configurations deterministically from logged proposals.

    Parameters
    ----------
    score:
        Deterministic re-scoring function (same metric state on every
        replica, so the same value everywhere).
    validator:
        Structural validity check for a configuration (e.g. "is a
        well-formed tree over all replicas").
    candidate_provider:
        Returns the current ``(K, u)``; used both to validate proposals
        (special roles ⊆ K) and to detect that the *current*
        configuration became invalid.
    f:
        Fault threshold; reconfiguration out of an invalid configuration
        waits for ``f+1`` proposals so a faulty proposer cannot force a
        bad choice.
    improvement_factor:
        A still-valid configuration is only replaced when the new score
        is better by this factor (default 10%), avoiding reconfiguration
        churn.
    """

    name = "config-monitor"
    record_types = (ConfigProposalRecord,)

    def __init__(
        self,
        replica_id: int,
        log: AppendOnlyLog,
        score: ScoreFn,
        validator: Callable[[Configuration], bool],
        candidate_provider: Callable[[], Tuple[FrozenSet[int], int]],
        f: int,
        on_reconfigure: Optional[Callable[[ReconfigurationDecision], None]] = None,
        improvement_factor: float = 0.9,
    ):
        self._score = score
        self._validator = validator
        self._candidates = candidate_provider
        self.f = f
        self.improvement_factor = improvement_factor
        self.on_reconfigure = on_reconfigure
        self.current: Optional[Configuration] = None
        self.current_score = math.inf
        #: Valid proposals gathered since the last reconfiguration,
        #: keyed by proposer (a proposer's newer proposal replaces older).
        self._pending: Dict[int, Tuple[float, ConfigProposalRecord]] = {}
        self.reconfigurations: List[ReconfigurationDecision] = []
        self.invalid_proposals = 0
        super().__init__(replica_id, log)

    # ------------------------------------------------------------------
    # Validity
    # ------------------------------------------------------------------
    def proposal_is_valid(self, configuration: Configuration) -> bool:
        """Valid iff structurally sound and special roles are candidates."""
        candidates, _u = self._candidates()
        if not self._validator(configuration):
            return False
        return configuration.special_replicas() <= candidates

    def current_is_valid(self) -> bool:
        """Does the active configuration still use only candidates?"""
        if self.current is None:
            return False
        return self.proposal_is_valid(self.current)

    # ------------------------------------------------------------------
    # Log consumption
    # ------------------------------------------------------------------
    def on_entry(self, entry: LogEntry) -> None:
        record: ConfigProposalRecord = entry.record
        if not self.proposal_is_valid(record.configuration):
            self.invalid_proposals += 1
            return
        # Re-score deterministically; the claimed score is advisory only.
        score = self._score(record.configuration)
        if math.isinf(score):
            self.invalid_proposals += 1
            return
        self._pending[record.proposer] = (score, record)
        self.evaluate()

    def recheck(self) -> None:
        """Re-evaluate after candidate-set changes (chained from the
        SuspicionMonitor via ``add_listener``)."""
        self.evaluate()

    def evaluate(self) -> None:
        """Apply the selection rule; triggers reconfiguration if due.

        Buffered proposals are re-validated against the *current*
        candidate set first: a proposal that was valid when logged may
        name a replica that has since been suspected (e.g. the old leader
        after an attack), and must not be reconfigured to.
        """
        self._pending = {
            proposer: (score, record)
            for proposer, (score, record) in self._pending.items()
            if self.proposal_is_valid(record.configuration)
        }
        if not self._pending:
            return
        best_proposer, (best_score, best_record) = min(
            self._pending.items(), key=lambda kv: (kv[1][0], kv[0])
        )
        if not self.current_is_valid():
            # Invalid (or missing) current configuration: wait for f+1
            # proposals, then take the best.
            if len(self._pending) >= self.f + 1 or self.current is None:
                self._activate(best_record, best_score, "invalid-current")
        else:
            # Valid current configuration: replace only on significant
            # improvement.
            if best_score < self.current_score * self.improvement_factor:
                self._activate(best_record, best_score, "improvement")

    def _activate(
        self, record: ConfigProposalRecord, score: float, reason: str
    ) -> None:
        decision = ReconfigurationDecision(
            configuration=record.configuration,
            score=score,
            proposer=record.proposer,
            reason=reason,
        )
        self.current = record.configuration
        self.current_score = score
        self._pending.clear()
        self.reconfigurations.append(decision)
        if self.on_reconfigure is not None:
            self.on_reconfigure(decision)
