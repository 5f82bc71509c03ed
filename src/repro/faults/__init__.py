"""Byzantine and benign-fault behaviours used across the evaluation.

* :mod:`repro.faults.delay` -- the Pre-Prepare delay attack (Fig. 7),
  δ-bounded malicious delays by internal tree nodes (Fig. 11), and the
  adaptive stay-below-``δ·d_m`` stealth adversary;
* :mod:`repro.faults.loss` -- probabilistic message loss on selected
  links, drawing from a dedicated ``derive_rng`` stream;
* :mod:`repro.faults.false_suspicion` -- the targeted false-suspicion
  attack against OptiTree's internal nodes (Fig. 10);
* :mod:`repro.faults.churn` -- crash -> recover cycles with catch-up-safe
  revival;
* :mod:`repro.faults.window` -- the shared ``start``/``end`` activation
  window every interceptor-based adversary uses;
* :mod:`repro.faults.schedule` -- the scenario-level vocabulary that
  composes all of these (:class:`~repro.faults.schedule.FaultSpec`, its
  validators) and :class:`~repro.faults.schedule.ArmedFault`, which
  switches one spec on and off against a live cluster and reports its
  ``fault_activity``;
* :mod:`repro.faults.genome` -- the searchable strategy space over all
  of the above: budgeted :class:`~repro.faults.genome.AttackGenome`
  strategies compiled deterministically into ``FaultSpec`` schedules
  for the adversary-synthesis search.

Network partitions are a property of the fabric, not of one adversary,
so they live on :class:`repro.sim.network.Network` directly
(``partition(groups)`` / ``heal()``); a crashed replica rejoins through
its cluster's ``catch_up`` (state transfer lives in the engines).
"""

from repro.faults.churn import ChurnSchedule
from repro.faults.delay import DelayAttack, DeltaDelayAttack, StealthDelayAttack
from repro.faults.false_suspicion import TargetedSuspicionAttack
from repro.faults.genome import (
    AdversaryBudget,
    ArenaProfile,
    AttackGenome,
    AttackMove,
    GenomeError,
    compile_genome,
    genome_to_dict,
    mutate,
    seed_genome,
)
from repro.faults.loss import MessageLoss
from repro.faults.schedule import FAULT_KINDS, ArmedFault, FaultSpec
from repro.faults.window import ActivationWindow

__all__ = [
    "ActivationWindow",
    "AdversaryBudget",
    "ArenaProfile",
    "ArmedFault",
    "AttackGenome",
    "AttackMove",
    "ChurnSchedule",
    "DelayAttack",
    "DeltaDelayAttack",
    "FAULT_KINDS",
    "FaultSpec",
    "GenomeError",
    "MessageLoss",
    "StealthDelayAttack",
    "TargetedSuspicionAttack",
    "compile_genome",
    "genome_to_dict",
    "mutate",
    "seed_genome",
]
