#!/usr/bin/env python
"""Campaign smoke: flat memory (campaign and plain run) + kill/resume
bit-identity.

The load-bearing memory and resume claims, checked end to end:

1. **O(1) metrics memory.**  A campaign an order of magnitude longer
   than the reference must not grow peak RSS with it: streaming sketches
   and replica compaction keep per-request state off the heap.  Each
   campaign runs in its own subprocess (``ru_maxrss`` is monotone per
   process, so same-process comparisons would be meaningless).
2. **O(in-flight) consensus state without the campaign plane.**  A plain
   ``repro run`` of a chained engine (OptiTree on Global73, the Fig. 9
   tree) eight times longer stays inside the same RSS headroom: the
   engines retire per-height state as they go, no ``compact()`` needed.
3. **Kill/resume round-trip.**  A shard killed after its first slice
   and resumed from the checkpoint file lands byte-identically (outside
   the drive-dependent fields) on the uninterrupted run -- once
   fault-free, once with armed faults in the checkpoint: a crash that is
   down at the first checkpoint and revives (through catch-up) after it,
   plus a loss interceptor on replies.

Usage::

    PYTHONPATH=src python scripts/campaign_smoke.py            # CI scale
    REPRO_FULL=1 PYTHONPATH=src python scripts/campaign_smoke.py  # 2M requests

Exits non-zero on any violated claim.
"""

import json
import os
import subprocess
import sys
import tempfile

#: The long campaign grows 8x (CI) / 100x (full) over the reference;
#: RSS may grow only by this factor before the smoke fails.
RSS_HEADROOM = 1.35

REFERENCE_REQUESTS = 20_000
SMOKE_REQUESTS = 2_000_000 if os.environ.get("REPRO_FULL") else 160_000

#: Simulated seconds of the plain-run pair (8x apart, like the campaigns).
PLAIN_DURATIONS = (30, 240)


def _run_campaign_subprocess(requests: int, workload: str, params) -> dict:
    command = [
        sys.executable, "-m", "repro", "campaign",
        "--protocol", "pbft",
        "--deployment", "wonderproxy-4",
        "--workload", workload,
        "--requests", str(requests),
        "--checkpoint-every", "20",
        "--seed", "11",
    ]
    for key, value in params.items():
        command += ["--param", f"{key}={value}"]
    environment = dict(os.environ, PYTHONPATH="src")
    completed = subprocess.run(
        command, capture_output=True, text=True, env=environment
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"campaign subprocess failed ({completed.returncode})")
    return json.loads(completed.stdout)


def check_flat_memory() -> None:
    # The arrival rate must be sustainable (pbft/wonderproxy-4 commits
    # ~530 rps here): an open-loop rate above capacity grows the leader
    # backlog without bound, which is real queueing, not a metrics leak.
    params = dict(rate=400.0, clients=4)
    reference = _run_campaign_subprocess(REFERENCE_REQUESTS, "open-loop", params)
    smoke = _run_campaign_subprocess(SMOKE_REQUESTS, "open-loop", params)

    for label, report, target in (
        ("reference", reference, REFERENCE_REQUESTS),
        ("smoke", smoke, SMOKE_REQUESTS),
    ):
        committed = report["merged"]["committed_requests"]
        if committed < target:
            raise SystemExit(
                f"{label} campaign under target: {committed} < {target}"
            )
        for shard in report["shards"]:
            if shard.get("underrun"):
                raise SystemExit(f"{label} campaign shard underran: {shard}")

    reference_rss = reference["host"]["peak_rss_kb"]
    smoke_rss = smoke["host"]["peak_rss_kb"]
    growth = smoke_rss / reference_rss
    scale = SMOKE_REQUESTS / REFERENCE_REQUESTS
    print(
        f"peak RSS: {reference_rss} KiB at {REFERENCE_REQUESTS} requests, "
        f"{smoke_rss} KiB at {SMOKE_REQUESTS} ({scale:.0f}x load, "
        f"{growth:.2f}x memory)"
    )
    if growth > RSS_HEADROOM:
        raise SystemExit(
            f"metrics memory is not flat: {growth:.2f}x RSS for {scale:.0f}x "
            f"requests (allowed {RSS_HEADROOM}x)"
        )
    summary = smoke["merged"]["commit_latency"]
    print(
        f"smoke commit latency: p50={summary['p50']:.4f}s "
        f"p90={summary['p90']:.4f}s p99={summary['p99']:.4f}s"
    )


def _plain_run_peak_rss_kb(duration: int) -> int:
    """Peak RSS of one ``repro run`` child; the CLI does not report its
    own, so it is read from the child's ``wait4`` resource usage."""
    command = [
        sys.executable, "-m", "repro", "run",
        "--protocol", "optitree",
        "--deployment", "Global73",
        "--workload", "saturated",
        "--seed", "3",
        "--duration", str(duration),
    ]
    process = subprocess.Popen(
        command, stdout=subprocess.DEVNULL, env=dict(os.environ, PYTHONPATH="src")
    )
    _pid, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    if process.returncode != 0:
        raise SystemExit(f"plain run subprocess failed ({process.returncode})")
    return usage.ru_maxrss


def check_flat_plain_run() -> None:
    short, long = PLAIN_DURATIONS
    short_rss = _plain_run_peak_rss_kb(short)
    long_rss = _plain_run_peak_rss_kb(long)
    growth = long_rss / short_rss
    print(
        f"plain run peak RSS: {short_rss} KiB at {short} sim-s, {long_rss} KiB "
        f"at {long} sim-s ({long / short:.0f}x duration, {growth:.2f}x memory)"
    )
    if growth > RSS_HEADROOM:
        raise SystemExit(
            f"consensus state is not flat: {growth:.2f}x RSS for "
            f"{long / short:.0f}x simulated time (allowed {RSS_HEADROOM}x)"
        )


def check_kill_resume(faulted: bool = False) -> None:
    from repro.experiments.campaign import CampaignSpec, run_campaign_shard
    from repro.experiments.runner import FaultSpec, Scenario

    faults = [
        FaultSpec(kind="crash", start=2.0, end=6.0, attacker=2),
        # Replies only: PBFT has no retransmission, so a lost protocol
        # message would stall the shard short of its target.
        FaultSpec(kind="loss", start=1.0, end=12.0, params={"rate": 0.02},
                  message_types=("Reply",)),
    ] if faulted else []

    drive_dependent = ("resumed_from", "slices_run", "peak_rss_kb")

    def strip(summary):
        return {
            key: value
            for key, value in summary.items()
            if key not in drive_dependent
        }

    with tempfile.TemporaryDirectory() as checkpoint_dir:
        spec = CampaignSpec(
            scenario=Scenario(
                protocol="pbft",
                deployment="wonderproxy-4",
                workload="flash-crowd",
                workload_params=dict(
                    base_rate=600.0, multiplier=4.0, interval=8.0,
                    decay_steps=2, step_duration=1.0, clients=2,
                ),
                duration=1e9,
                seed=13,
                faults=faults,
            ),
            requests=20_000,
            checkpoint_every=4.0,
            shards=1,
            checkpoint_dir=checkpoint_dir,
        )

        def point(**overrides):
            entry = {
                "shard": 0,
                "scenario": spec.shard_scenario(0),
                "target": spec.shard_target(0),
                "checkpoint_every": spec.checkpoint_every,
                "compact_keep": spec.compact_keep,
                "max_slices": spec.max_slices,
                "checkpoint_path": spec.shard_checkpoint_path(0),
            }
            entry.update(overrides)
            return entry

        baseline = run_campaign_shard(point(checkpoint_path=None))
        killed = run_campaign_shard(point(max_slices=1))
        if not killed.get("underrun"):
            raise SystemExit("kill phase unexpectedly reached the target")
        resumed = run_campaign_shard(point())
        if resumed.get("resumed_from") != spec.checkpoint_every:
            raise SystemExit(
                f"resume did not start from the checkpoint: {resumed}"
            )
        if strip(resumed) != strip(baseline):
            raise SystemExit(
                "kill/resume diverged from the uninterrupted run:\n"
                f"  uninterrupted: {json.dumps(strip(baseline), sort_keys=True)}\n"
                f"  resumed:       {json.dumps(strip(resumed), sort_keys=True)}"
            )
    print(
        f"{'faulted ' if faulted else ''}kill/resume: bit-identical after "
        f"resuming from t={spec.checkpoint_every}s"
    )


def main() -> int:
    check_flat_memory()
    check_flat_plain_run()
    check_kill_resume()
    check_kill_resume(faulted=True)
    print("campaign smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
