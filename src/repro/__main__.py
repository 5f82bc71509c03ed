"""``python -m repro``: run scenarios and figure drivers from the shell.

Subcommands
-----------
``run``
    Execute an ad-hoc :class:`~repro.experiments.runner.Scenario` and
    print its JSON metrics (deterministic under ``--seed``)::

        python -m repro run --protocol pbft --workload bursty \
            --deployment wonderproxy-16 --seed 0

``scenario``
    Execute a named adversarial scenario from the registry
    (``partition-heal``, ``churn-storm``, ``stealth-delta``,
    ``lossy-wan``, ``smear-campaign``) and print its JSON metrics::

        python -m repro scenario churn-storm --seed 3

``sweep``
    Execute one scenario per seed, optionally sharded across a process
    pool, and print a JSON array of metrics (byte-identical for any
    ``--jobs``, including serial)::

        python -m repro sweep --protocol pbft --deployment wonderproxy-16 \
            --seeds 0 1 2 3 --jobs 4

``campaign``
    Run a long streaming-metrics campaign to a committed-request target,
    sliced every ``--checkpoint-every`` simulated seconds (replica
    compaction + optional checkpoint files; rerunning the same command
    with ``--checkpoint-dir`` resumes bit-identically after a kill)::

        python -m repro campaign --requests 2000000 --workload diurnal \
            --checkpoint-every 30 --checkpoint-dir ckpts --shards 4 --jobs 4

``attack``
    Synthesize the worst-case bounded adversary for an arena by
    annealing over the attack-genome space (ROADMAP item 4), or sweep a
    whole robustness frontier (degradation vs adversary budget, with the
    hand-authored scenarios as reference points).  Deterministic under
    ``--seed`` and byte-identical for any ``--jobs``::

        python -m repro attack --arena pbft --objective latency \
            --budget-faulty 6 --iterations 40 --restarts 2 --jobs 4
        python -m repro attack --frontier --axis faulty --levels 1 3 6 \
            --output frontier_pbft.json

``fig``
    Execute a figure driver (``fig7`` ... ``fig15``, ``fast`` and
    ``--jobs`` where supported) and print its table.

``list``
    Show the available protocols, workloads, deployments, fault kinds,
    scenarios and figures.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import inspect
import json
import sys
from typing import Any, Dict, List, Optional

from repro.experiments import runner as runner_mod
from repro.experiments import scenarios as scenarios_mod
from repro.experiments.parallel import ParallelWorkerError
from repro.experiments.runner import FaultSpec, Scenario, run_scenario
from repro.faults.schedule import FAULT_KINDS
from repro.workloads import WORKLOADS

FIGURES = tuple(f"fig{i}" for i in range(7, 16))

#: FaultSpec's own dataclass fields; any other key=value in a --fault
#: string is routed into the kind-specific ``params`` dict.
_FAULT_FIELDS = frozenset(
    f.name for f in dataclasses.fields(FaultSpec)
) - {"kind", "params"}


def _parse_value(text: str) -> Any:
    """Best-effort literal parsing: numbers/tuples/bools, else string."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _parse_params(pairs: Optional[List[str]]) -> Dict[str, Any]:
    params: Dict[str, Any] = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep:
            raise SystemExit(f"--param expects key=value, got {pair!r}")
        params[key.replace("-", "_")] = _parse_value(value)
    return params


def _split_top_level(text: str) -> List[str]:
    """Split on commas outside any parentheses/brackets (nesting-aware,
    so ``groups=((0,1),(2,3))`` survives intact)."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for char in text:
        if char in "([":
            depth += 1
        elif char in ")]":
            depth = max(0, depth - 1)
        if char == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
    if current:
        parts.append("".join(current))
    return parts


def _parse_fault_value(value: str) -> Any:
    """Literal where possible; a parenthesised list of bare names becomes
    a tuple of strings: ``(PrePrepare,Prepare)`` -> ("PrePrepare", "Prepare")."""
    parsed = _parse_value(value)
    if (
        isinstance(parsed, str)
        and value.startswith("(")
        and value.endswith(")")
    ):
        return tuple(
            item.strip().strip("'\"")
            for item in value[1:-1].split(",")
            if item.strip()
        )
    return parsed


def _parse_fault(text: str) -> FaultSpec:
    """``kind:key=value,key=value`` -> FaultSpec.

    Keys that are not FaultSpec fields go into the kind-specific params,
    so the whole vocabulary is reachable from the shell::

        delay:start=60,attacker=leader,extra_delay=0.8
        delta_delay:attacker=intermediates,delta=1.25,adaptive=True
        partition:groups=((0,1,2),(3,4,5,6)),start=10,end=20
        loss:rate=0.03,message_types=(Prepare,Commit)
        churn:period=10,downtime=3,random=True
        false_suspicion:attacker=(17,18,19),target=leader,period=10
    """
    kind, _, rest = text.partition(":")
    kwargs: Dict[str, Any] = {}
    params: Dict[str, Any] = {}
    if rest:
        for pair in _split_top_level(rest):
            key, sep, value = pair.partition("=")
            if not sep:
                raise SystemExit(f"--fault expects kind:key=value,..., got {text!r}")
            key = key.replace("-", "_")
            target = kwargs if key in _FAULT_FIELDS else params
            target[key] = _parse_fault_value(value)
    try:
        return FaultSpec(kind=kind, params=params, **kwargs)
    except (TypeError, ValueError) as error:
        raise SystemExit(f"bad --fault {text!r}: {error}")


def _scenario_from_args(args: argparse.Namespace, seed: int) -> Scenario:
    """The scenario ``run``, ``sweep`` and ``campaign`` describe with their
    shared options (see :func:`_add_scenario_options`)."""
    return Scenario(
        protocol=args.protocol,
        deployment=args.deployment,
        workload=args.workload,
        workload_params=_parse_params(args.param),
        duration=args.duration,
        seed=seed,
        delta=args.delta,
        jitter=args.jitter,
        client_city=args.client_city,
        faults=[_parse_fault(fault) for fault in args.fault or []],
        search_iterations=args.search_iterations,
        pipeline_depth=args.pipeline_depth,
    )


def _emit(args: argparse.Namespace, text: str) -> int:
    """Write ``text`` to ``--output`` (noting it on stderr) or stdout."""
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    result = run_scenario(_scenario_from_args(args, args.seed))
    return _emit(args, result.to_json(indent=2))


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.parallel import derive_sweep_seed, run_scenarios

    seeds = list(args.seeds or [])
    if args.derive_seeds:
        seeds.extend(
            derive_sweep_seed(args.seed, f"sweep-{index}")
            for index in range(args.derive_seeds)
        )
    if not seeds:
        raise SystemExit("sweep needs --seeds and/or --derive-seeds")
    scenarios = [_scenario_from_args(args, seed) for seed in seeds]
    metrics = run_scenarios(
        scenarios,
        jobs=args.jobs,
        progress=lambda message: print(message, file=sys.stderr),
    )
    return _emit(args, json.dumps(metrics, sort_keys=True, indent=2))


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.experiments.campaign import CampaignSpec, campaign_to_json, run_campaign

    spec = CampaignSpec(
        scenario=_scenario_from_args(args, args.seed),
        requests=args.requests,
        checkpoint_every=args.checkpoint_every,
        shards=args.shards,
        checkpoint_dir=args.checkpoint_dir,
        compact_keep=args.compact_keep,
    )
    report = run_campaign(
        spec,
        jobs=args.jobs,
        progress=lambda message: print(message, file=sys.stderr),
    )
    return _emit(args, campaign_to_json(report, indent=2))


def cmd_scenario(args: argparse.Namespace) -> int:
    if args.list:
        print("available scenarios:")
        print(scenarios_mod.format_scenario_registry())
        return 0
    if not args.name:
        raise SystemExit(
            "scenario needs a name (or --list); available scenarios:\n"
            + scenarios_mod.format_scenario_registry()
        )
    result = scenarios_mod.run_named(args.name, seed=args.seed, duration=args.duration)
    return _emit(args, result.to_json(indent=2))


def cmd_attack(args: argparse.Namespace) -> int:
    from repro.experiments.attack import (
        best_reference_degradation,
        evaluate_references,
        make_arena,
    )
    from repro.experiments.frontier import format_frontier_table, run_frontier
    from repro.faults.genome import AdversaryBudget
    from repro.optimize.adversary import DEFAULT_SCHEDULE, attack_search

    progress = lambda message: print(message, file=sys.stderr)  # noqa: E731
    schedule = dataclasses.replace(DEFAULT_SCHEDULE, iterations=args.iterations)
    budget = AdversaryBudget(
        max_faulty=args.budget_faulty,
        delta=args.budget_delta,
        max_loss_rate=args.budget_loss,
        max_extra_delay=args.budget_delay,
        max_moves=args.budget_moves,
    )
    if args.frontier:
        report = run_frontier(
            arena_name=args.arena,
            objective=args.objective,
            axis=args.axis,
            levels=args.levels,
            base_budget=budget,
            duration=args.duration,
            seeds=tuple(args.eval_seeds),
            seed=args.seed,
            restarts=args.restarts,
            schedule=schedule,
            jobs=args.jobs,
            progress=progress,
        )
        print(format_frontier_table(report))
    else:
        arena = make_arena(
            args.arena, duration=args.duration, seeds=tuple(args.eval_seeds)
        )
        report = attack_search(
            arena,
            budget,
            args.objective,
            seed=args.seed,
            restarts=args.restarts,
            schedule=schedule,
            jobs=args.jobs,
            progress=progress,
        )
        references = evaluate_references(arena, args.objective)
        report["references"] = [
            {
                "name": ref["name"],
                "degradation": ref["degradation"],
                "victims": ref["victims"],
            }
            for ref in references
        ]
        report["best_reference"] = best_reference_degradation(references)
        print(
            f"arena {report['arena']} / {report['objective']}: synthesized "
            f"degradation {report['best']['degradation']:.3f} "
            f"(best hand-authored reference: {report['best_reference']:.3f})"
        )
        print(f"  {report['best']['label']}")
    return _emit(args, json.dumps(report, sort_keys=True, indent=2))


def cmd_fig(args: argparse.Namespace) -> int:
    if args.figure not in FIGURES:
        raise SystemExit(f"unknown figure {args.figure!r} (known: {', '.join(FIGURES)})")
    module = importlib.import_module(f"repro.experiments.{args.figure}")
    main = module.main
    kwargs: Dict[str, Any] = {
        knob: getattr(args, knob)
        for knob in ("duration", "seed", "fast", "jobs")
        if getattr(args, knob) is not None
    }
    accepted = inspect.signature(main).parameters
    refused = [knob for knob in kwargs if knob not in accepted]
    if refused:
        flags = ", ".join(f"--{knob}" for knob in refused)
        raise ValueError(f"{args.figure} does not take {flags}")
    print(main(**kwargs))
    return 0


def cmd_list(_args: argparse.Namespace) -> int:
    print("protocols:")
    for name, (family, variant) in sorted(runner_mod.PROTOCOLS.items()):
        print(f"  {name:18s} ({family}/{variant})")
    print("workloads:")
    for name in sorted(WORKLOADS):
        print(f"  {name}")
    print("  saturated          (no clients; engines self-clock full blocks)")
    print("deployments:")
    for name in sorted(runner_mod.NAMED_DEPLOYMENTS.values()):
        print(f"  {name}")
    for pattern, description in runner_mod.DEPLOYMENT_PATTERNS:
        print(f"  {pattern:18s} ({description})")
    print("fault kinds:")
    print("  " + " ".join(FAULT_KINDS))
    print("scenarios:")
    for name, (_factory, description) in sorted(
        scenarios_mod.ADVERSARIAL_SCENARIOS.items()
    ):
        print(f"  {name:18s} {description}")
    print("figures:")
    print("  " + " ".join(FIGURES))
    return 0


def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
    """The scenario-shape options ``run`` and ``sweep`` share; one
    definition so defaults and help text cannot drift between them."""
    parser.add_argument("--protocol", default="pbft",
                        choices=sorted(runner_mod.PROTOCOLS))
    parser.add_argument("--deployment", default="Europe21",
                        help=" | ".join(runner_mod.deployment_names()))
    parser.add_argument("--workload", default="closed-loop",
                        help=f"{' | '.join(sorted(WORKLOADS))} | saturated")
    parser.add_argument("--param", action="append", metavar="KEY=VALUE",
                        help="workload parameter (repeatable), e.g. --param on_rate=80")
    parser.add_argument("--duration", type=float, default=30.0,
                        help="simulated seconds (default 30)")
    parser.add_argument("--delta", type=float, default=1.0,
                        help="suspicion timer multiplier delta")
    parser.add_argument("--jitter", type=float, default=0.02,
                        help="fractional link jitter (default 0.02)")
    parser.add_argument("--client-city", type=int, default=None,
                        help="city index the default client is pinned to")
    parser.add_argument("--fault", action="append", metavar="KIND:K=V,...",
                        help="fault spec (repeatable); kinds: "
                             "delay | delta_delay | crash | churn | partition "
                             "| loss | false_suspicion, e.g. "
                             "delay:start=60,attacker=leader,extra_delay=0.8 "
                             "or loss:rate=0.03,start=5,end=25")
    parser.add_argument("--search-iterations", type=int, default=20_000,
                        help="OptiTree annealing iterations")
    parser.add_argument("--pipeline-depth", type=int, default=None)
    parser.add_argument("--output", metavar="FILE",
                        help="write JSON here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OptiLog reproduction: scenario runner and figure drivers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run an ad-hoc scenario, print JSON metrics")
    _add_scenario_options(run_parser)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.set_defaults(func=cmd_run)

    sweep_parser = sub.add_parser(
        "sweep", help="run one scenario per seed (optionally in parallel), print JSON"
    )
    _add_scenario_options(sweep_parser)
    sweep_parser.add_argument("--seeds", type=int, nargs="+", metavar="SEED",
                              help="explicit sweep seeds, e.g. --seeds 0 1 2 3")
    sweep_parser.add_argument("--derive-seeds", type=int, default=0, metavar="N",
                              help="additionally derive N seeds from --seed "
                                   "(labelled substreams, like derive_rng)")
    sweep_parser.add_argument("--seed", type=int, default=0,
                              help="root seed for --derive-seeds")
    sweep_parser.add_argument("--jobs", type=int, default=None,
                              help="process-pool width (default serial; -1 = all cores)")
    sweep_parser.set_defaults(func=cmd_sweep)

    campaign_parser = sub.add_parser(
        "campaign",
        help="run a checkpointed streaming-metrics campaign to a request target",
    )
    _add_scenario_options(campaign_parser)
    campaign_parser.add_argument("--seed", type=int, default=0,
                                 help="root seed; shard seeds derive from it")
    campaign_parser.add_argument("--requests", type=int, default=1_000_000,
                                 help="total committed-request target (default 1M)")
    campaign_parser.add_argument("--checkpoint-every", type=float, default=30.0,
                                 metavar="SECONDS",
                                 help="simulated seconds per slice (default 30)")
    campaign_parser.add_argument("--shards", type=int, default=1,
                                 help="independent sub-campaigns (merged in order)")
    campaign_parser.add_argument("--jobs", type=int, default=None,
                                 help="process-pool width for shards "
                                      "(default serial; results identical)")
    campaign_parser.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                                 help="write per-shard checkpoints here; rerunning "
                                      "the same command resumes from them")
    campaign_parser.add_argument("--compact-keep", type=int, default=128,
                                 help="per-replica history kept behind the commit "
                                      "frontier at each slice boundary (HotStuff/"
                                      "Kauri: bounds qc_heights only; their other "
                                      "per-height state retires itself)")
    campaign_parser.set_defaults(func=cmd_campaign)

    scenario_parser = sub.add_parser(
        "scenario", help="run a named adversarial scenario, print JSON metrics"
    )
    scenario_parser.add_argument(
        "name", nargs="?", default=None,
        help=" | ".join(sorted(scenarios_mod.ADVERSARIAL_SCENARIOS)),
    )
    scenario_parser.add_argument(
        "--list", action="store_true",
        help="print the scenario registry (name + description) and exit",
    )
    scenario_parser.add_argument("--seed", type=int, default=0)
    scenario_parser.add_argument(
        "--duration", type=float, default=None,
        help="override the scenario's default duration (fault windows scale)",
    )
    scenario_parser.add_argument("--output", metavar="FILE",
                                 help="write JSON here instead of stdout")
    scenario_parser.set_defaults(func=cmd_scenario)

    attack_parser = sub.add_parser(
        "attack",
        help="synthesize a worst-case bounded adversary (annealed search)",
    )
    attack_parser.add_argument(
        "--arena", default="pbft", choices=("pbft", "hotstuff", "kauri", "optiaware"),
        help="which fault-free arena to attack (default pbft)",
    )
    attack_parser.add_argument(
        "--objective", default="latency", choices=("latency", "suspicion"),
        help="maximize commit-latency degradation or false-suspicion yield",
    )
    attack_parser.add_argument(
        "--frontier", action="store_true",
        help="sweep a budget axis instead of a single search "
             "(degradation vs budget, hand-authored references included)",
    )
    attack_parser.add_argument(
        "--axis", default="faulty", choices=("faulty", "delta"),
        help="budget axis for --frontier (default faulty)",
    )
    attack_parser.add_argument(
        "--levels", type=float, nargs="+", default=None, metavar="LEVEL",
        help="explicit --frontier levels (default per axis)",
    )
    attack_parser.add_argument("--budget-faulty", type=int, default=3, metavar="F",
                               help="max simultaneously faulty replicas (default 3)")
    attack_parser.add_argument("--budget-delta", type=float, default=1.25,
                               metavar="DELTA",
                               help="stealth-delay bound as a multiple of the "
                                    "estimated timeout (default 1.25)")
    attack_parser.add_argument("--budget-loss", type=float, default=0.05,
                               metavar="RATE",
                               help="max per-link loss rate (default 0.05)")
    attack_parser.add_argument("--budget-delay", type=float, default=0.5,
                               metavar="SECONDS",
                               help="max fixed extra delay (default 0.5)")
    attack_parser.add_argument("--budget-moves", type=int, default=4, metavar="M",
                               help="max moves per genome (default 4)")
    attack_parser.add_argument("--duration", type=float, default=None,
                               help="override the arena's evaluation duration")
    attack_parser.add_argument("--eval-seeds", type=int, nargs="+", default=[0, 1],
                               metavar="SEED",
                               help="worst-of-k evaluation seeds (default 0 1)")
    attack_parser.add_argument("--seed", type=int, default=0,
                               help="search root seed; chain seeds derive from it")
    attack_parser.add_argument("--iterations", type=int, default=40,
                               help="annealing iterations per chain (default 40)")
    attack_parser.add_argument("--restarts", type=int, default=2,
                               help="independent annealing chains (default 2)")
    attack_parser.add_argument("--jobs", type=int, default=None,
                               help="process-pool width (default serial; "
                                    "results byte-identical for any value)")
    attack_parser.add_argument("--output", metavar="FILE",
                               help="write the JSON report here instead of stdout")
    attack_parser.set_defaults(func=cmd_attack)

    fig_parser = sub.add_parser("fig", help="run a figure driver, print its table")
    fig_parser.add_argument("figure", help="fig7 ... fig15")
    fig_parser.add_argument("--duration", type=float, default=None)
    fig_parser.add_argument("--seed", type=int, default=None)
    fig_parser.add_argument("--fast", action="store_true", default=None,
                            help="compressed timeline where the driver supports it")
    fig_parser.add_argument("--jobs", type=int, default=None,
                            help="shard the figure's sweep across N processes "
                                 "(fig7/fig9/fig12; results identical to serial)")
    fig_parser.set_defaults(func=cmd_fig)

    list_parser = sub.add_parser("list", help="list protocols, workloads, deployments")
    list_parser.set_defaults(func=cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Parse ``argv`` and run its command.  The one error boundary: a
    value the library rejects (``ValueError`` / ``TypeError``, whose text
    names the offender) or a failed worker exits 1 with ``error: ...``
    instead of a traceback."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParallelWorkerError as error:
        raise SystemExit(f"error: {error} (failing point: {error.label})")
    except (ValueError, TypeError) as error:
        raise SystemExit(f"error: {error}")


if __name__ == "__main__":
    sys.exit(main())
