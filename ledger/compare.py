"""Compare two ledger result files of the same seed.

    python ledger/compare.py A.json B.json

A is the base, B the candidate.  Per workload, every end-to-end metric
of ``BENCHMARK.json`` gets a row: both values (``run.ESTIMATE`` over the
repetitions: fastest for times, median for memory), the ratio B/A, and

* ``worse``      B's value is worse than A's by more than the bound;
* ``unresolved`` the run-to-run spread of either side (quartile distance
                 over median) is wider than the bound, so the row cannot
                 say "unchanged";
* ``ok``         otherwise.

Simulated statistics and counts repeat exactly under one seed, so they
get an equality verdict instead of a bound.  Exits 1 on any ``worse``
row or a higher ``failed_ops / ops``; exact mismatches are reported but
are the reviewer's call (a protocol change moves them on purpose).
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List

from run import ESTIMATE, load_manifest


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(metric: Dict, a: List[float], b: List[float]) -> str:
    estimate = ESTIMATE[metric["name"]]
    base, candidate = estimate(a), estimate(b)
    change = candidate / base - 1.0
    if metric["better"] == "higher":
        change = -change
    if change > metric["bound"]:
        return "worse"
    if max(spread(a), spread(b)) > metric["bound"]:
        return "unresolved"
    return "ok"


def compare(a: Dict, b: Dict, manifest: Dict) -> int:
    """Print the comparison; the number of regressions found."""
    regressions = 0
    if a["seed"] != b["seed"]:
        print(f"note: seeds differ ({a['seed']} vs {b['seed']}): "
              "exact rows will differ by construction")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            print(f"\n== {name}: missing from B")
            regressions += 1
            continue
        left, right = a["workloads"][name], b["workloads"][name]
        print(f"\n== {name}")
        print(f"   {'metric':<18}{'A':>12}{'B':>12}{'B/A':>8}  verdict")
        for metric in manifest["end_to_end"]:
            key = metric["name"]
            va = left.get("end_to_end", {}).get(key)
            vb = right.get("end_to_end", {}).get(key)
            if not va or not vb:
                print(f"   {key:<18}{'-':>12}{'-':>12}{'-':>8}  not measured")
                continue
            result = verdict(metric, va, vb)
            regressions += result == "worse"
            ma, mb = ESTIMATE[key](va), ESTIMATE[key](vb)
            print(f"   {key:<18}{ma:>12.4f}{mb:>12.4f}{mb / ma:>8.3f}  {result}"
                  f" (bound {metric['bound']:.0%} of A, {metric['better']} is better)")
        ea, eb = left.get("exact", {}), right.get("exact", {})
        differing = sorted(k for k in set(ea) | set(eb) if ea.get(k) != eb.get(k))
        if differing:
            print(f"   simulated statistics and counts: DIFFER in {', '.join(differing)}")
            for key in differing:
                print(f"      {key}: {ea.get(key)!r} -> {eb.get(key)!r}")
        else:
            print(f"   simulated statistics and counts: identical ({len(ea)} values)")
        fa = left["failed_ops"] / left["ops"]
        fb = right["failed_ops"] / right["ops"]
        print(f"   failed_ops / ops: {left['failed_ops']}/{left['ops']}"
              f" -> {right['failed_ops']}/{right['ops']}")
        regressions += fb > fa
    return regressions


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        regressions = compare(json.load(fa), json.load(fb), load_manifest())
    print(f"\n{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
