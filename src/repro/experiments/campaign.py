"""Long-horizon measurement campaigns: sliced, checkpointed, shardable.

A *campaign* runs a scenario until a committed-request target is met
instead of a fixed duration, in slices of ``checkpoint_every`` simulated
seconds.  At every slice boundary the campaign

1. compacts the consensus replicas (:meth:`compact` drops per-sequence
   state the protocol can no longer read, keeping memory O(1) in run
   length; the chained engines -- HotStuff, Kauri/OptiTree -- retire
   their per-height maps themselves in every run, so for them ``keep``
   bounds ``qc_heights`` only), and
2. optionally writes a :mod:`repro.experiments.checkpoint` file, so a
   killed campaign resumes from the last boundary **bit-identically** to
   the uninterrupted run.

Campaigns default to the streaming measurement plane
(``MeasurementPolicy(metrics="sketch")``): latency lives in mergeable
log-scale histograms, not per-request lists, so a 2M-request campaign
holds the same metrics memory as a 100k one.

Sharding splits the request target across ``shards`` independent
sub-campaigns whose seeds derive from the root seed
(:func:`derive_sweep_seed`), optionally fanned out over the process pool
(``jobs``).  Results merge in shard order -- per-shard sketches fold via
``MetricsSketch.merge`` -- so the merged campaign summary is
byte-identical for any ``jobs``, including serial.
"""

from __future__ import annotations

import json
import math
import os
import resource
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from repro.experiments.checkpoint import load_checkpoint, save_checkpoint
from repro.experiments.parallel import derive_sweep_seed, parallel_map
from repro.experiments.runner import (
    MeasurementPolicy,
    Scenario,
    prepare_scenario,
)
from repro.metrics import MetricsSketch


@dataclass
class CampaignSpec:
    """What to run and how to slice it."""

    scenario: Scenario
    #: Total committed requests to accumulate across all shards.
    requests: int = 1_000_000
    #: Simulated seconds per slice (compaction + checkpoint cadence).
    checkpoint_every: float = 30.0
    shards: int = 1
    #: Directory for per-shard checkpoint files; None disables
    #: checkpointing (slicing and compaction still happen).
    checkpoint_dir: Optional[str] = None
    #: Replica state kept behind the commit frontier at compaction
    #: (chained engines: ``qc_heights`` only, the rest retires itself).
    compact_keep: int = 128
    #: Hard slice-count backstop against a dried-up workload.
    max_slices: int = 1_000_000

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"request target must be positive, got {self.requests}")
        if not (math.isfinite(self.checkpoint_every) and self.checkpoint_every > 0):
            raise ValueError(
                f"checkpoint_every must be finite and > 0, got {self.checkpoint_every!r}"
            )
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.compact_keep < 0:
            # A negative keep puts PBFT's compaction floor above its
            # executed seq, so every in-flight vote reads as a duplicate.
            raise ValueError(f"compact_keep must be >= 0, got {self.compact_keep}")

    def shard_scenario(self, shard: int) -> Scenario:
        """The scenario one shard runs: derived seed, streaming metrics.

        An explicit ``measurements`` policy on the campaign scenario is
        honoured as given; without one, campaigns default to sketch
        metrics -- exact mode would grow per-request state and defeat
        compaction.
        """
        measurements = self.scenario.measurements or MeasurementPolicy(
            metrics="sketch"
        )
        base_name = self.scenario.name or "campaign"
        return replace(
            self.scenario,
            seed=derive_sweep_seed(self.scenario.seed, f"campaign-shard-{shard}"),
            measurements=measurements,
            name=f"{base_name}/shard{shard}",
        )

    def shard_target(self, shard: int) -> int:
        """Per-shard request target; first shards absorb the remainder."""
        base, extra = divmod(self.requests, self.shards)
        return base + (1 if shard < extra else 0)

    def shard_checkpoint_path(self, shard: int) -> Optional[str]:
        if self.checkpoint_dir is None:
            return None
        return os.path.join(self.checkpoint_dir, f"shard-{shard}.ckpt")


def _peak_rss_kb() -> int:
    """Peak RSS of this process in KiB (Linux ``ru_maxrss`` unit)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_campaign_shard(point: Dict[str, Any]) -> Dict[str, Any]:
    """Worker: run one shard to its request target, return its summary.

    ``point`` is a plain dict (module-level function + picklable
    argument: the process-pool contract).  Keys: ``scenario``,
    ``target``, ``checkpoint_every``, ``compact_keep``, ``max_slices``,
    ``checkpoint_path`` (optional), ``shard``.
    """
    scenario: Scenario = point["scenario"]
    target: int = point["target"]
    checkpoint_every: float = point["checkpoint_every"]
    compact_keep: int = point["compact_keep"]
    max_slices: int = point["max_slices"]
    checkpoint_path: Optional[str] = point.get("checkpoint_path")

    resumed_from = None
    result = None
    if checkpoint_path and os.path.exists(checkpoint_path):
        result = load_checkpoint(checkpoint_path, expected_scenario=scenario)
        resumed_from = result.cluster.sim.now
    if result is None:
        result = prepare_scenario(scenario)
        result.cluster.begin()

    cluster = result.cluster
    sim = cluster.sim
    # What finish() will return, polled at slice boundaries.
    metrics = cluster.observer.metrics
    slices = 0
    while metrics.total_requests() < target and slices < max_slices:
        if not sim._queue:
            break  # workload dried up: no event will ever commit more
        sim.run(until=sim.now + checkpoint_every)
        slices += 1
        cluster.compact(compact_keep)
        if checkpoint_path:
            save_checkpoint(
                checkpoint_path,
                result,
                extra={"shard": point.get("shard"), "target": target},
            )
    run_metrics = cluster.finish()
    result.run_metrics = run_metrics

    elapsed = sim.now
    summary: Dict[str, Any] = {
        "shard": point.get("shard", 0),
        "scenario": scenario.describe(),
        "requests_target": target,
        "committed_requests": run_metrics.total_requests(),
        "committed_blocks": run_metrics.committed_blocks(),
        "sim_seconds": elapsed,
        "slices_run": slices,
        "resumed_from": resumed_from,
        "events_processed": sim.events_processed,
        "throughput_rps": (
            run_metrics.total_requests() / elapsed if elapsed > 0 else 0.0
        ),
        "commit_latency": run_metrics.latency_summary(),
        "peak_rss_kb": _peak_rss_kb(),
    }
    if metrics.total_requests() < target:
        summary["underrun"] = True  # loud, not silent: target not reached
    # Mergeable sketch states ride along for the campaign-level fold.
    if getattr(run_metrics, "streaming", False):
        summary["commit_sketch"] = run_metrics.sketch.state_dict()
    workload = result.workload
    sketch = getattr(workload, "_stream_sketch", None) if workload else None
    if sketch is not None:
        summary["client_sketch"] = sketch.state_dict()
        summary["client"] = workload.summary()
    return summary


def _merge_sketches(states: List[Dict[str, Any]]) -> Optional[MetricsSketch]:
    """Fold shard sketch states in shard order (the order fixes the
    float-sum association, making merges independent of ``jobs``)."""
    merged: Optional[MetricsSketch] = None
    for state in states:
        sketch = MetricsSketch.from_state(state)
        if merged is None:
            merged = sketch
        else:
            merged.merge(sketch)
    return merged


def run_campaign(
    spec: CampaignSpec,
    jobs: Optional[int] = None,
    progress: Optional[Any] = None,
) -> Dict[str, Any]:
    """Run every shard (serial or pooled) and merge their results.

    The returned dict is byte-identical (as JSON) for any ``jobs`` value:
    shards are deterministic under their derived seeds and all folds run
    in shard order.
    """
    if spec.checkpoint_dir is not None:
        os.makedirs(spec.checkpoint_dir, exist_ok=True)
    points = [
        {
            "shard": shard,
            "scenario": spec.shard_scenario(shard),
            "target": spec.shard_target(shard),
            "checkpoint_every": spec.checkpoint_every,
            "compact_keep": spec.compact_keep,
            "max_slices": spec.max_slices,
            "checkpoint_path": spec.shard_checkpoint_path(shard),
        }
        for shard in range(spec.shards)
    ]
    shard_summaries = parallel_map(
        run_campaign_shard, points, jobs=jobs, progress=progress
    )

    total_requests = sum(s["committed_requests"] for s in shard_summaries)
    total_blocks = sum(s["committed_blocks"] for s in shard_summaries)
    total_seconds = sum(s["sim_seconds"] for s in shard_summaries)
    merged: Dict[str, Any] = {
        "requests_target": spec.requests,
        "committed_requests": total_requests,
        "committed_blocks": total_blocks,
        "sim_seconds": total_seconds,
        "throughput_rps": (
            total_requests / total_seconds if total_seconds > 0 else 0.0
        ),
    }
    commit_states = [
        s["commit_sketch"] for s in shard_summaries if "commit_sketch" in s
    ]
    commit_sketch = _merge_sketches(commit_states)
    if commit_sketch is not None:
        merged["commit_latency"] = commit_sketch.summary()
    client_states = [
        s["client_sketch"] for s in shard_summaries if "client_sketch" in s
    ]
    client_sketch = _merge_sketches(client_states)
    if client_sketch is not None:
        merged["client_latency"] = client_sketch.summary()

    # Sketch states served their purpose, and peak RSS depends on which
    # process ran the shard: both leave the deterministic sections so
    # ``merged`` and ``shards`` stay byte-identical for any ``jobs``.
    shard_rss = []
    for summary in shard_summaries:
        summary.pop("commit_sketch", None)
        summary.pop("client_sketch", None)
        shard_rss.append(summary.pop("peak_rss_kb"))
    return {
        "campaign": {
            "scenario": spec.scenario.describe(),
            "requests": spec.requests,
            "checkpoint_every": spec.checkpoint_every,
            "shards": spec.shards,
            "compact_keep": spec.compact_keep,
            "checkpoint_dir": spec.checkpoint_dir,
        },
        "merged": merged,
        "shards": shard_summaries,
        #: Environment-dependent (process-pool layout, allocator): the
        #: one section excluded from the jobs-independence contract.
        "host": {
            "peak_rss_kb": max(shard_rss),
            "shard_peak_rss_kb": shard_rss,
        },
    }


def campaign_to_json(report: Dict[str, Any], indent: Optional[int] = None) -> str:
    return json.dumps(report, sort_keys=True, indent=indent)
