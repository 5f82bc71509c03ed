"""The six ledger workloads (see README.md for why each exists).

Imported by ``child.py`` only, after ``src/`` is on ``sys.path``.  A
workload is three callables: ``arm(seed)`` builds its inputs (timed as
``setup_s``), ``run(armed)`` executes them (timed as ``wall_s``, and the
only part the tracer sees) and ``collect(ran)`` reads the results into
an :class:`Outcome` and checks them, untimed.  ``--seed`` is the only input: it becomes
every ``Scenario.seed`` / figure-driver ``seed``; the program sees only
the generated scenarios.  Everything here goes through API a later PR
must keep importable: ``Scenario``, ``FaultSpec``, ``MeasurementPolicy``,
``prepare_scenario``, ``make_scenario``, ``CampaignSpec`` /
``run_campaign`` and the ``fig8`` / ``fig10`` / ``fig12`` ``run()``s.

Sizes are the issue's workloads scaled so one repetition takes 3-6 s on
the 2-core reference host (the driver allows ~25 s per invocation and
an invocation needs at least two repetitions); the message delay is the
city / world WAN latency model with the default 2% jitter throughout.
"""

from __future__ import annotations

import math
import random
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from statistics import geometric_mean
from typing import Any, Callable, Dict, List, Tuple

from repro.experiments import fig8, fig10, fig12
from repro.experiments.campaign import CampaignSpec, run_campaign
from repro.experiments.runner import (
    FaultSpec,
    MeasurementPolicy,
    Scenario,
    ScenarioResult,
    prepare_scenario,
)
from repro.experiments.scenarios import make_scenario
from repro.net.deployments import EUROPE21
from repro.optimize.maxindset import greedy_independent_set, maximum_independent_set

Check = Tuple[str, bool]


@dataclass
class Outcome:
    """What one repetition of a workload produced."""

    #: Simulated statistics (exact under one seed).
    sim: Dict[str, float]
    #: Per-layer counts read from public attributes (exact under one seed).
    counts: Dict[str, int]
    #: Simulated operations done: the divisor of ``wall_us_per_op``.
    ops: int
    #: Scenario runs + figure-driver calls made.
    runs: int
    checks: List[Check] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    arm: Callable[[int], Any]
    run: Callable[[Any], Any]
    collect: Callable[[Any], Outcome]


# ----------------------------------------------------------------------
# Scenario-table workloads
# ----------------------------------------------------------------------
def _scenario_counts(results: List[ScenarioResult], rows: List[Dict]) -> Dict[str, int]:
    counts: Counter = Counter()
    for result, row in zip(results, rows):
        sim = result.cluster.sim
        stats = result.cluster.network.stats
        counts["sim.engine.events"] += sim.events_processed
        counts["sim.engine.max_queue_depth"] = max(
            counts["sim.engine.max_queue_depth"], sim.max_queue_depth
        )
        counts["sim.network.messages_sent"] += stats.messages_sent
        counts["sim.network.messages_delivered"] += stats.messages_delivered
        counts["sim.network.messages_dropped"] += stats.messages_dropped
        counts["sim.network.messages_multicast"] += stats.messages_multicast
        counts["sim.network.bytes_sent"] += stats.bytes_sent
        counts["consensus.committed_blocks"] += row["committed_blocks"]
        counts["consensus.committed_requests"] += row["committed_requests"]
        counts["consensus.reconfigurations"] += row["reconfigurations"]
        # Counts below exist only where the scenario has the layer.
        optilog = getattr(result.cluster.replicas[0], "optilog", None)
        if optilog is not None:
            monitor = optilog.pipeline.suspicion_monitor
            counts["core.log.entries"] += len(optilog.pipeline.log)
            counts["core.suspicion.active"] += monitor.graph.edge_count()
            counts["core.suspicion.filtered"] += monitor.filtered_count
        for activity in row.get("fault_activity", ()):
            for key in ("messages_delayed", "messages_lost", "crashes"):
                if key in activity:
                    counts[f"faults.{key}"] += activity[key]
        client = row.get("client")
        if client is not None:
            counts["workloads.requests_sent"] += client["requests_sent"]
            counts["workloads.requests_completed"] += client["requests_completed"]
    return dict(counts)


def scenario_workload(
    build: Callable[[int], List[Scenario]],
    extra_checks: Callable[[List[ScenarioResult], List[Dict]], List[Check]] = (
        lambda results, rows: []
    ),
) -> Workload:
    """Workload over a table of scenarios: prepare all, then run each."""

    def arm(seed: int) -> List[ScenarioResult]:
        return [prepare_scenario(scenario) for scenario in build(seed)]

    def run(armed: List[ScenarioResult]) -> List[ScenarioResult]:
        for result in armed:
            result.run_metrics = result.cluster.run(result.scenario.duration)
        return armed

    def collect(armed: List[ScenarioResult]) -> Outcome:
        rows = [result.metrics() for result in armed]
        checks = [
            (
                f"{row['scenario']['name']}: committed_requests > 0",
                row["committed_requests"] > 0,
            )
            for row in rows
        ]
        latencies = [row["commit_latency"] for row in rows if "commit_latency" in row]
        sim = {}
        if len(latencies) == len(rows):
            sim = {
                "sim_latency_ms": 1e3 * geometric_mean([l["p50"] for l in latencies]),
                "sim_latency_tail_ms": 1e3 * geometric_mean([l["p99"] for l in latencies]),
                "sim_throughput_rps": geometric_mean([r["throughput_rps"] for r in rows]),
            }
            checks += extra_checks(armed, rows)
        counts = _scenario_counts(armed, rows)
        return Outcome(
            sim=sim,
            counts=counts,
            ops=counts["sim.network.messages_delivered"],
            runs=len(armed),
            checks=checks,
        )

    return Workload(arm, run, collect)


def _pbft_scale(seed: int) -> List[Scenario]:
    # The `repro bench --scale` n512 row, 0.5 sim-s instead of 1.5:
    # two commits on most seeds, three where the placement is compact.
    return [
        Scenario(
            name="pbft-scale",
            protocol="pbft",
            deployment="world-512",
            workload="closed-loop",
            duration=0.5,
            seed=seed,
            plane="columnar",
        )
    ]


def _tree_wan(seed: int) -> List[Scenario]:
    # Fig. 9's 73-city headline, 240 sim-s per tree instead of 600.
    return [
        Scenario(
            name=protocol,
            protocol=protocol,
            deployment="Global73",
            workload="saturated",
            duration=240.0,
            seed=seed,
        )
        for protocol in ("optitree", "kauri")
    ]


def _check_tree_wan(results, rows) -> List[Check]:
    optitree, kauri = (row["commit_latency"]["p50"] for row in rows)
    return [("fig9: optitree p50 < kauri p50", optitree < kauri)]


#: Fig. 7's `fast` OptiAware timeline compressed a further 2x in time
#: (measurement cadence, attack start and duration alike); a 2.5x
#: compression was tried and changes the regime (the attacked latency
#: jumps from 0.2 s to 1.6 s), so 2x is the floor.
_ATTACK_START = 13.65
_ATTACK_DURATION = 30.0


def _optiaware_attack(seed: int) -> List[Scenario]:
    return [
        Scenario(
            name="optiaware-attack",
            protocol="pbft-optiaware",
            deployment="Europe21",
            workload="closed-loop",
            duration=_ATTACK_DURATION,
            seed=seed,
            delta=1.25,
            client_city=EUROPE21.index("Nuremberg"),
            # Always explicit: see "known hazards" in README.md.
            measurements=MeasurementPolicy(
                probe_at=1.0, publish_at=2.5, first_search_at=6.5, search_period=4.5
            ),
            faults=[
                FaultSpec(
                    kind="delay",
                    start=_ATTACK_START,
                    attacker="leader",
                    extra_delay=0.8,
                    message_types=("PrePrepare",),
                )
            ],
        )
    ]


def _check_optiaware_attack(results, rows) -> List[Check]:
    series = results[0].cluster.client.latency_series(_ATTACK_DURATION)

    def mean_between(start: float, end: float) -> float:
        window = [latency for t, latency in series if start <= t < end]
        return sum(window) / len(window) if window else math.inf

    attacked = mean_between(_ATTACK_START + 1.0, _ATTACK_START + 6.0)
    final = mean_between(_ATTACK_DURATION - 6.0, _ATTACK_DURATION)
    return [
        ("fig7: reconfigured", rows[0]["reconfigurations"] >= 1),
        ("fig7: recovered (final < attacked / 2)", final < attacked / 2.0),
    ]


def _faulted_wan(seed: int) -> List[Scenario]:
    # Issue durations 45/45/300/300 scaled to a third; stealth-delta
    # (exact per-commit metrics on a saturated random tree) further, so
    # its memory stays below the PBFT runs' and peak_rss_mb stays steady.
    return [
        make_scenario("partition-heal", seed=seed, duration=15.0),
        make_scenario("lossy-wan", seed=seed, duration=15.0),
        make_scenario("churn-storm", seed=seed, duration=100.0),
        make_scenario("stealth-delta", seed=seed, duration=40.0),
    ]


# ----------------------------------------------------------------------
# campaign-stream
# ----------------------------------------------------------------------
_CAMPAIGN_REQUESTS = 64_000  # issue: 160 000
#: Issue: 400 req/s.  PBFT commits at most 64 requests per block, so a
#: placement with commit latency L serves 64 / L req/s; wonderproxy-4
#: draws reach L = 0.23 s (277 req/s).  At 400 req/s half of all seeds
#: saturate, their backlog doubles the cost per event and the workload
#: stops being one workload.  150 req/s is below every draw's capacity.
_CAMPAIGN_RATE = 150.0


def _arm_campaign(seed: int) -> Scenario:
    return Scenario(
        name="campaign-stream",
        protocol="pbft",
        deployment="wonderproxy-4",
        workload="open-loop",
        workload_params={"rate": _CAMPAIGN_RATE, "clients": 4},
        seed=11 + seed,
    )


def _run_campaign(scenario: Scenario) -> Dict[str, Any]:
    # The harness points TMPDIR inside the checkout and removes it.
    with tempfile.TemporaryDirectory(prefix="campaign-") as directory:
        return run_campaign(
            CampaignSpec(
                scenario=scenario,
                requests=_CAMPAIGN_REQUESTS,
                checkpoint_every=40.0,
                shards=1,
                checkpoint_dir=directory,
            ),
            jobs=1,
        )


def _collect_campaign(report: Dict[str, Any]) -> Outcome:
    merged = report["merged"]
    shards = report["shards"]
    latency = merged["commit_latency"]
    return Outcome(
        sim={
            "sim_latency_ms": 1e3 * latency["p50"],
            "sim_latency_tail_ms": 1e3 * latency["p99"],
            "sim_throughput_rps": merged["throughput_rps"],
        },
        counts={
            "sim.engine.events": sum(s["events_processed"] for s in shards),
            "consensus.committed_blocks": merged["committed_blocks"],
            "consensus.committed_requests": merged["committed_requests"],
            "workloads.requests_sent": sum(s["client"]["requests_sent"] for s in shards),
            "workloads.requests_completed": sum(
                s["client"]["requests_completed"] for s in shards
            ),
            "experiments.slices_run": sum(s["slices_run"] for s in shards),
        },
        # The campaign report exposes no network statistics, and the cost
        # per *request* swings 2x with the seed's placement (latency sets
        # the batch size); cost per engine event does not.
        ops=sum(s["events_processed"] for s in shards),
        runs=1,
        checks=[
            ("committed >= target", merged["committed_requests"] >= _CAMPAIGN_REQUESTS),
            ("no shard underrun", not any(s.get("underrun") for s in shards)),
        ],
    )


# ----------------------------------------------------------------------
# role-search
# ----------------------------------------------------------------------
#: Issue: fig10 runs=5, fig12 runs=5; scaled to 2 runs each.
_FIG10 = dict(n=211, f=70, max_reconfigs=32, runs=2, sa_iterations=3000)
_FIG12 = dict(sizes=(157, 183, 211), runs=2, iterations_per_second=4000)
_FIG8 = dict(graphs_per_size=100, edge_probability=0.5)


def _run_role_search(seed: int):
    rows10 = fig10.run(seed=seed, **_FIG10)
    fig12.run(seed=seed, **_FIG12)
    fig8.run(seed=seed, **_FIG8)
    return seed, rows10


def _collect_role_search(ran) -> Outcome:
    seed, rows10 = ran
    scores = [row.optitree for row in rows10]
    mean_score = sum(scores) / len(scores)
    first = rows10[0]
    # OptiTree and Kauri-sa each anneal once per step; Fig. 12 spends
    # search_time * iterations_per_second per point.
    search_iterations = (
        2 * _FIG10["runs"] * (_FIG10["max_reconfigs"] + 1) * _FIG10["sa_iterations"]
        + len(_FIG12["sizes"])
        * _FIG12["runs"]
        * sum(int(t * _FIG12["iterations_per_second"]) for t in fig12.SEARCH_TIMES)
    )
    mis_solves = _FIG8["graphs_per_size"] * len(fig8.DEFAULT_SIZES)
    return Outcome(
        sim={
            # The paper's own y-axis for Fig. 10: OptiTree's tree score
            # over the reconfiguration steps; throughput is what a tree
            # with that score commits without pipelining.
            "sim_latency_ms": 1e3 * mean_score,
            "sim_latency_tail_ms": 1e3 * max(scores),
            "sim_throughput_rps": 1.0 / mean_score,
        },
        counts={
            "tree.search_iterations": search_iterations,
            "optimize.mis_solves": mis_solves,
        },
        ops=search_iterations + mis_solves,
        runs=3,
        checks=[
            (
                "fig10 step 0: optitree <= kauri-sa <= kauri",
                first.optitree <= first.kauri_sa <= first.kauri,
            ),
            ("fig8: every candidate set is independent", _fig8_independent(seed)),
        ],
    )


def _fig8_independent(seed: int) -> bool:
    """Re-solve one Fig. 8 graph per size and verify independence --
    ``fig8.run`` returns only timings and set sizes."""
    rng = random.Random(seed)
    for n in fig8.DEFAULT_SIZES:
        graph = fig8.random_suspicion_graph(n, _FIG8["edge_probability"], rng)
        solver = maximum_independent_set if n <= 26 else greedy_independent_set
        chosen = sorted(solver(graph))
        if any(
            graph.has_edge(a, b) for i, a in enumerate(chosen) for b in chosen[i + 1:]
        ):
            return False
    return True


WORKLOADS: Dict[str, Workload] = {
    "pbft-scale": scenario_workload(_pbft_scale),
    "tree-wan": scenario_workload(_tree_wan, _check_tree_wan),
    "optiaware-attack": scenario_workload(_optiaware_attack, _check_optiaware_attack),
    "faulted-wan": scenario_workload(_faulted_wan),
    "campaign-stream": Workload(_arm_campaign, _run_campaign, _collect_campaign),
    "role-search": Workload(lambda seed: seed, _run_role_search, _collect_role_search),
}
