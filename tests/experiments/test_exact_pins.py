"""No silent drift: the ledger's ``exact`` sections, pinned at seed 1.

``data/exact_seed1.json`` holds, for each of the six ledger workloads,
the simulated statistics, counts and op count of one repetition at
seed 1 -- the numbers ``ledger/compare.py`` demands equality on.  They
depend on the seed only, so one fresh ``ledger/child.py`` per workload
must reproduce every value, and every check the workload runs on its
own output must pass.

A PR that changes behaviour re-records the file on purpose, in the
same commit, and says so::

    python ledger/run.py --seed 1 --seconds 1 --out X.json

then copy each ``workloads[W].exact`` of ``X.json`` into the file's
``exact[W]`` and refresh ``recorded_with``.  A PR that only makes the
simulator faster must leave the file alone.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parents[2] / "ledger"
PINS = json.loads((Path(__file__).parent / "data" / "exact_seed1.json").read_text())


@pytest.mark.parametrize("workload", sorted(PINS["exact"]))
def test_exact_section_reproduces_the_recorded_pins(workload, tmp_path):
    child = subprocess.run(
        [
            sys.executable, str(LEDGER / "child.py"),
            "--table", str(LEDGER / "workloads.py"),
            "--workload", workload, "--seed", str(PINS["seed"]),
            "--trace", "0", "--t0", repr(time.monotonic()),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, TMPDIR=str(tmp_path)),
    )
    assert child.returncode == 0, child.stderr[-2000:]
    repetition = json.loads(child.stdout.strip().splitlines()[-1])
    assert [name for name, ok in repetition["checks"] if not ok] == []
    exact = dict(repetition["sim"], **repetition["counts"], ops=repetition["ops"])
    assert exact == PINS["exact"][workload]
