"""The perf ledger: every workload, every metric, one command.

    python ledger/run.py [--seed S] [--out FILE]

runs each workload of ``BENCHMARK.json`` twice -- tracing off for the
end-to-end metrics, then tracing on for the per-layer split -- prints
every metric by name with its unit, checks the outputs and writes the
result JSON (``compare.py`` compares two of them).

    python ledger/run.py --workload W --seed S --seconds T --trace 0|1

is one measurement of one workload, whose last line of output is the
JSON object the benchmark driver reads.

The harness is a closed loop with one client: it starts one fresh child
process (``child.py``) per repetition, never two at once, and repeats
until ``--seconds`` of set-up plus body time have been measured (three
times at least).  A host time is the fastest repetition's, memory the
median (see ``ESTIMATE``); simulated statistics and counts must be
bit-equal across repetitions.  Failures are counted, not
hidden: a child that raises, is killed by the timeout or fails a check
is a failed operation and the harness carries on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from typing import Any, Dict, List, Optional

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
DEFAULT_TABLE = os.path.join(HERE, "workloads.py")

MIN_REPETITIONS = 3
#: Parent-enforced cap on one child: 10x the slowest repetition (6 s).
CHILD_TIMEOUT_S = 60.0
#: No repetition starts after this much of an invocation; with the cap
#: above an invocation ends inside the driver's 180 s.
DEADLINE_S = 100.0

#: Counts a workload may report (``workloads.py`` reads them from public
#: attributes after the run); they repeat exactly under one seed.
COUNTS = (
    "sim.engine.events", "sim.engine.max_queue_depth",
    "sim.network.messages_sent", "sim.network.messages_delivered",
    "sim.network.messages_dropped", "sim.network.messages_multicast",
    "sim.network.bytes_sent", "consensus.committed_blocks",
    "consensus.committed_requests", "consensus.reconfigurations",
    "core.log.entries", "core.suspicion.active", "core.suspicion.filtered",
    "faults.messages_delayed", "faults.messages_lost", "faults.crashes",
    "workloads.requests_sent", "workloads.requests_completed",
    "experiments.slices_run", "tree.search_iterations", "optimize.mis_solves",
)
SIM = ("sim_latency_ms", "sim_latency_tail_ms", "sim_throughput_rps")

#: How the repetitions of one invocation reduce to the reported value.
#: Host times take the minimum: this host's noise is one-sided and comes
#: in slow spells of 5-100 s (README.md, "steadiness") that a median of
#: 3-6 repetitions sits inside, while some repetition of a spell still
#: runs at full speed.  Replayed over 136 consecutive repetitions, the
#: median of 4 ranged 0.94-1.15x and the minimum of 4 0.92-1.05x.
ESTIMATE = {
    "setup_s": min,
    "wall_us_per_op": min,
    "peak_rss_mb": statistics.median,
}


def load_manifest() -> Dict[str, Any]:
    with open(MANIFEST) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# One child at a time
# ----------------------------------------------------------------------
def run_child(
    table: str, workload: str, seed: int, trace: bool, scratch: str
) -> Dict[str, Any]:
    """One repetition in a fresh process: its result, or ``{"error": ...}``."""
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--table", table, "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--t0", repr(time.monotonic()),
    ]
    process = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, TMPDIR=scratch),
        start_new_session=True,  # so a timeout kills grandchildren too
    )
    try:
        out, err = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"error": f"killed after {CHILD_TIMEOUT_S:.0f} s"}
    if process.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {process.returncode}: {tail[0]}"}
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "exit 0 without a result line"}


def measure(
    table: str, workload: str, seed: int, seconds: float, trace: bool, scratch: str
) -> Dict[str, Any]:
    """Repeat ``workload`` until ``seconds`` are measured (3 times at least).

    In a traced measurement the first repetition runs untraced: it is
    the reference ``tracer.overhead_ratio`` is taken against.
    """
    started = time.monotonic()
    reps: List[Dict[str, Any]] = []
    failures: List[str] = []
    attempted = failed = 0
    measured = 0.0
    while (
        len(reps) < MIN_REPETITIONS or measured < seconds
    ) and time.monotonic() - started < DEADLINE_S:
        rep = run_child(table, workload, seed, trace and bool(reps), scratch)
        if "error" in rep:
            attempted += 1
            failed += 1
            failures.append(rep["error"])
            break  # the same inputs would fail the same way again
        checks = list(rep["checks"])
        if reps:
            same = all(rep[key] == reps[0][key] for key in ("sim", "counts", "ops"))
            checks.append(["simulated statistics bit-equal across repetitions", same])
        attempted += rep["runs"] + len(checks)
        for name, ok in checks:
            if not ok:
                failed += 1
                failures.append(f"check failed: {name}")
        reps.append(rep)
        measured += rep["setup_s"] + rep["wall_s"]
    return {
        "reps": reps, "attempted": attempted, "failed": failed, "failures": failures,
    }


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, List[float]]:
    """Per-repetition values of each end-to-end metric (untraced reps)."""
    untraced = [rep for rep in reps if "trace" not in rep]
    return {
        "setup_s": [rep["setup_s"] for rep in untraced],
        "wall_us_per_op": [1e6 * rep["wall_s"] / rep["ops"] for rep in untraced],
        "peak_rss_mb": [rep["peak_rss_mb"] for rep in untraced],
    }


def per_layer(reps: List[Dict[str, Any]]) -> Dict[str, float]:
    """Every per-layer metric of a traced measurement, by name.

    Times are per repetition (mean over the traced ones); counts and
    simulated statistics are the first repetition's (all are equal).
    A count the workload does not have reads 0.
    """
    traced = [rep["trace"] for rep in reps if "trace" in rep]
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t["self_s"][layer] for t in traced) / len(traced)
        out[f"{layer}.incl_s"] = sum(t["incl_s"][layer] for t in traced) / len(traced)
    counts = reps[0]["counts"]
    for name in COUNTS:
        out[name] = counts.get(name, 0)
    for name in SIM:
        out[name] = reps[0]["sim"].get(name, 0.0)
    delivered = out["sim.network.messages_delivered"]
    events = out["sim.engine.events"]
    out["sim.network.self_us_per_delivery"] = (
        1e6 * out["sim.network.self_s"] / delivered if delivered else 0.0
    )
    out["sim.engine.self_us_per_event"] = (
        1e6 * out["sim.engine.self_s"] / events if events else 0.0
    )
    out["tracer.samples"] = sum(t["samples"] for t in traced)
    untraced_wall = min(r["wall_s"] for r in reps if "trace" not in r)
    traced_wall = min(r["wall_s"] for r in reps if "trace" in r)
    out["tracer.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    return out


def driver_line(manifest, measurement, trace: bool) -> str:
    """The JSON object the benchmark driver reads."""
    reps = measurement["reps"]
    if trace:
        values = per_layer(reps)
        declared = manifest["per_layer"]
    else:
        values = {k: ESTIMATE[k](v) for k, v in end_to_end(reps).items()}
        declared = manifest["end_to_end"]
    return json.dumps(
        {
            "correct": measurement["failed"] == 0,
            "attempted": measurement["attempted"],
            "failed": measurement["failed"],
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in declared
            },
        }
    )


# ----------------------------------------------------------------------
# The ledger
# ----------------------------------------------------------------------
def fingerprint() -> Dict[str, Any]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None  # an exported checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": commit,
        "loadavg_start": list(os.getloadavg()),
    }


def ledger_entry(untraced, traced) -> Dict[str, Any]:
    """One workload's section of the result JSON."""
    entry: Dict[str, Any] = {
        "ops": untraced["attempted"] + traced["attempted"],
        "failed_ops": untraced["failed"] + traced["failed"],
        "failures": untraced["failures"] + traced["failures"],
    }
    reps = untraced["reps"]
    if reps:
        entry["repetitions"] = len(reps)
        entry["end_to_end"] = end_to_end(reps)
        entry["wall_s"] = [rep["wall_s"] for rep in reps]
        # Exact under one seed: compare.py demands equality, not a bound.
        entry["exact"] = dict(reps[0]["sim"], **reps[0]["counts"], ops=reps[0]["ops"])
    if any("trace" in rep for rep in traced["reps"]):
        entry["per_layer"] = per_layer(traced["reps"])
    return entry


def print_entry(name: str, entry: Dict[str, Any], manifest) -> None:
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    print(f"\n== {name}: ops {entry['ops']}, failed_ops {entry['failed_ops']}")
    for failure in entry["failures"]:
        print(f"   FAILED {failure}")
    for metric, values in entry.get("end_to_end", {}).items():
        print(f"   {metric:<24}{ESTIMATE[metric](values):>14.4f} {units[metric]}")
    if "wall_s" in entry:
        print(f"   {'wall_s':<24}{min(entry['wall_s']):>14.4f} s")
    layers = entry.get("per_layer")
    if layers is None:
        return
    for metric in SIM:
        print(f"   {metric:<24}{layers[metric]:>14.4f} {units[metric]}")
    total = sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    print(f"   {'layer':<24}{'self_s':>10}{'share':>8}{'incl_s':>10}")
    for layer in sorted(LAYERS, key=lambda l: -layers[f"{l}.self_s"]):
        self_s, incl_s = layers[f"{layer}.self_s"], layers[f"{layer}.incl_s"]
        if incl_s > 0.0:
            print(f"   {layer:<24}{self_s:>10.3f}{self_s / total:>8.1%}{incl_s:>10.3f}")
    for metric, value in layers.items():
        if not metric.endswith(("self_s", "incl_s")) and metric not in SIM and value:
            print(f"   {metric:<40}{value:>16.6g} {units[metric]}")


def check_program() -> Optional[str]:
    """Untimed warm-up import (fills the page cache and ``__pycache__``);
    the error text if the program is not there to be measured."""
    warm = subprocess.run(
        [
            sys.executable, "-c",
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "import repro.experiments.campaign, repro.experiments.scenarios, "
            "repro.experiments.fig8, repro.experiments.fig10, repro.experiments.fig12",
            os.path.join(ROOT, "src"),
        ],
        capture_output=True, text=True,
    )
    if warm.returncode != 0:
        return (warm.stderr.strip().splitlines() or ["import failed"])[-1]
    return None


def main(argv=None) -> int:
    manifest = load_manifest()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=manifest["run_seconds"])
    parser.add_argument("--workload", action="append",
                        help="default: every workload of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one measurement, driver output (needs one --workload)")
    parser.add_argument("--out", help="write the ledger JSON here")
    parser.add_argument("--table", default=DEFAULT_TABLE, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in manifest["workloads"]]
    if args.trace is not None and len(names) != 1:
        parser.error("--trace takes exactly one --workload")

    error = check_program()
    if error is not None:
        print(f"ledger: cannot import the program: {error}", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".ledger-tmp-", dir=ROOT) as scratch:
        if args.trace is not None:
            measurement = measure(
                args.table, names[0], args.seed, args.seconds, bool(args.trace), scratch
            )
            for failure in measurement["failures"]:
                print(f"ledger: {names[0]}: {failure}", file=sys.stderr)
            if len(measurement["reps"]) < MIN_REPETITIONS:
                return 1  # nothing measured: no result line
            print(driver_line(manifest, measurement, bool(args.trace)))
            return 0

        result = {"seed": args.seed, "seconds": args.seconds, "host": fingerprint(),
                  "workloads": {}}
        for name in names:
            untraced = measure(args.table, name, args.seed, args.seconds, False, scratch)
            traced = measure(args.table, name, args.seed, args.seconds, True, scratch)
            entry = result["workloads"][name] = ledger_entry(untraced, traced)
            print_entry(name, entry, manifest)
    result["host"]["loadavg_end"] = list(os.getloadavg())
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
