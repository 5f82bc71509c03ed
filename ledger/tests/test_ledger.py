"""The ledger harness on a toy workload table, plus its static contracts."""

import copy
import json
import os
import re
import subprocess
import sys

import pytest

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(LEDGER)
sys.path.insert(0, LEDGER)

from tracer import LAYERS, OTHER, layer_of  # noqa: E402

TOY_TABLE = os.path.join(LEDGER, "tests", "toy_workloads.py")
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(script, *args):
    return subprocess.run(
        [sys.executable, os.path.join(LEDGER, script), *args],
        capture_output=True, text=True, timeout=120,
    )


def test_every_source_file_maps_to_a_named_layer():
    package = os.path.join(ROOT, "src", "repro")
    for directory, _, files in os.walk(package):
        if os.path.relpath(directory, package).split(os.sep)[0] == "bench":
            continue
        for name in files:
            if name.endswith(".py"):
                layer = layer_of(os.path.join(directory, name), package)
                assert layer in LAYERS and layer != OTHER, (directory, name, layer)
    assert layer_of("/usr/lib/python3/random.py", package) == OTHER


def test_manifest_names_are_well_formed():
    manifest = _manifest()
    names = [w["name"] for w in manifest["workloads"]]
    names += [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))


@pytest.fixture(scope="module")
def toy_ledger(tmp_path_factory):
    out = tmp_path_factory.mktemp("ledger") / "toy.json"
    done = _run("run.py", "--table", TOY_TABLE, "--workload", "toy",
                "--workload", "toy-raises", "--seconds", "0", "--seed", "3",
                "--out", str(out))
    assert done.returncode == 0, done.stderr
    with open(out) as handle:
        return out, json.load(handle), done.stdout


def test_toy_ledger_emits_the_declared_names(toy_ledger):
    _, ledger, printed = toy_ledger
    manifest = _manifest()
    toy = ledger["workloads"]["toy"]
    assert toy["failed_ops"] == 0 and toy["failures"] == []
    # Two passes (untraced, traced) of 3 repetitions, each 2 runs + 2
    # checks, plus 2 bit-equality checks per pass: repetitions of one
    # seed agree on every simulated statistic and count.
    assert toy["ops"] == 2 * (3 * 4 + 2)
    assert set(toy["end_to_end"]) == {m["name"] for m in manifest["end_to_end"]}
    assert set(toy["per_layer"]) == {m["name"] for m in manifest["per_layer"]}
    assert toy["exact"]["consensus.committed_requests"] > 0
    assert toy["per_layer"]["tracer.samples"] > 0
    assert ledger["seed"] == 3 and ledger["host"]["nproc"] >= 1
    for name in toy["end_to_end"]:
        assert name in printed


def test_a_raising_workload_is_one_failed_op(toy_ledger):
    _, ledger, _ = toy_ledger
    raises = ledger["workloads"]["toy-raises"]
    # Each of the two passes stops at its first failed child.
    assert raises["failed_ops"] == raises["ops"] == 2
    assert "toy-raises always raises" in raises["failures"][0]
    assert "end_to_end" not in raises


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_driver_line(trace, section):
    done = _run("run.py", "--table", TOY_TABLE, "--workload", "toy",
                "--seconds", "0", "--seed", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in _manifest()[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared


def test_driver_mode_prints_no_result_for_a_failed_workload():
    done = _run("run.py", "--table", TOY_TABLE, "--workload", "toy-raises",
                "--seconds", "0", "--trace", "0")
    assert done.returncode == 1 and done.stdout.strip() == ""


def test_compare_flags_a_doctored_regression(toy_ledger, tmp_path):
    path, ledger, _ = toy_ledger
    del ledger["workloads"]["toy-raises"]
    base = tmp_path / "a.json"
    base.write_text(json.dumps(ledger))
    same = _run("compare.py", str(base), str(base))
    assert same.returncode == 0, same.stdout + same.stderr
    assert "identical" in same.stdout and "worse" not in same.stdout

    doctored = copy.deepcopy(ledger)
    values = doctored["workloads"]["toy"]["end_to_end"]["wall_us_per_op"]
    bound = next(m["bound"] for m in _manifest()["end_to_end"]
                 if m["name"] == "wall_us_per_op")
    values[:] = [(1.0 + bound + 0.05) * value for value in values]
    doctored["workloads"]["toy"]["exact"]["sim.engine.events"] += 1
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps(doctored))
    flagged = _run("compare.py", str(base), str(worse))
    assert flagged.returncode == 1
    assert re.search(rf"wall_us_per_op.*{1.0 + bound + 0.05:.3f}\s+worse", flagged.stdout)
    assert "DIFFER in sim.engine.events" in flagged.stdout
