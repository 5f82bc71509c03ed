"""One repetition of one workload, in a fresh process.

Started by ``run.py`` (never two at once), prints one JSON object as
its last line of standard output and exits 0; any other exit is one
failed operation for the parent to count.  Host numbers are taken here,
inside the process they describe:

* ``setup_s``: from the parent's ``--t0`` stamp (``time.monotonic()`` is
  system-wide on Linux) to the workload being armed -- interpreter
  start, ``import repro...`` and ``arm(seed)``;
* ``wall_s`` / ``cpu_s``: the workload body, ``run(armed)``;
* ``peak_rss_mb``: ``ru_maxrss`` at exit.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import sys
import time

#: Address-space cap: a runaway run must die as one failed operation
#: instead of taking the host down (README.md, "known hazards").
ADDRESS_SPACE_LIMIT = 4 << 30


def load_table(path: str):
    """The ``WORKLOADS`` dict of the workload-table module at ``path``."""
    spec = importlib.util.spec_from_file_location("ledger_table", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations here
    spec.loader.exec_module(module)
    return module.WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args(argv)

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]

    import repro

    workload = load_table(args.table)[args.workload]
    armed = workload.arm(args.seed)
    setup_s = time.monotonic() - args.t0

    sampler = None
    if args.trace:
        from tracer import Sampler

        sampler = Sampler(os.path.dirname(os.path.abspath(repro.__file__)))
        sampler.start()
    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    try:
        ran = workload.run(armed)
    finally:
        wall_s = time.perf_counter() - wall_start
        cpu_s = time.process_time() - cpu_start
        if sampler is not None:
            sampler.stop()

    outcome = workload.collect(ran)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": outcome.ops,
        "runs": outcome.runs,
        "sim": outcome.sim,
        "counts": outcome.counts,
        "checks": outcome.checks,
    }
    if sampler is not None:
        result["trace"] = {
            "samples": sampler.samples,
            "self_s": sampler.self_s,
            "incl_s": sampler.incl_s,
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
