"""The scenario registry and its CLI surface.

One registry, three consumers: ``repro scenario --list``, the
unknown-name error, and the adversary-synthesis arenas.  The UX tests
here pin that all three read the same table -- and that the deployment
name patterns are documented from one table the same way.
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.attack import ARENA_SOURCES
from repro.experiments.runner import DEPLOYMENT_PATTERNS, resolve_deployment
from repro.experiments.scenarios import (
    ADVERSARIAL_SCENARIOS,
    format_scenario_registry,
    make_scenario,
)


def _repro(*argv):
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        cwd=Path(__file__).resolve().parents[2],
        timeout=120,
    )


def test_cli_rejects_nan_duration_within_seconds():
    # A NaN duration never ends a run; it must fail at construction.
    started = time.monotonic()
    proc = _repro("run", "--protocol", "pbft", "--deployment", "Europe21",
                  "--duration", "nan")
    assert proc.returncode != 0
    assert "duration" in proc.stderr
    assert time.monotonic() - started < 5.0


def test_cli_rejects_nan_checkpoint_cadence():
    # A NaN slice length never ends a campaign slice.
    proc = _repro("campaign", "--protocol", "pbft", "--deployment",
                  "wonderproxy-4", "--requests", "500",
                  "--checkpoint-every", "nan")
    assert proc.returncode == 1
    assert proc.stderr.startswith(
        "error: checkpoint_every must be finite and > 0, got nan"
    )


def test_cli_rejects_client_city_outside_the_deployment():
    proc = _repro("run", "--protocol", "pbft", "--deployment", "Europe21",
                  "--duration", "1", "--client-city", "25")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: client_city")
    assert "[0, 21)" in proc.stderr and "25" in proc.stderr


def test_cli_rejects_a_workload_site_outside_the_deployment():
    proc = _repro("run", "--protocol", "pbft", "--deployment", "Europe21",
                  "--workload", "open-loop", "--param", "rate=20",
                  "--param", "sites=(25,)", "--duration", "1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: client site")
    assert "[0, 21)" in proc.stderr and "25" in proc.stderr


def test_cli_rejected_attack_schedule_is_an_error_not_a_traceback():
    proc = _repro("attack", "--iterations", "-1")
    assert proc.returncode == 1
    assert "error: iterations" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_fig_names_the_flags_its_driver_does_not_take():
    proc = _repro("fig", "fig13", "--seed", "7", "--duration", "3")
    assert proc.returncode == 1
    assert "fig13 does not take --duration, --seed" in proc.stderr
    assert proc.stdout == ""


def test_registry_lines_are_sorted_and_described():
    lines = format_scenario_registry().splitlines()
    names = [line.split()[0] for line in lines]
    assert names == sorted(ADVERSARIAL_SCENARIOS)
    for line, name in zip(lines, names):
        description = ADVERSARIAL_SCENARIOS[name][1]
        assert description in line


def test_unknown_name_error_carries_the_registry():
    with pytest.raises(ValueError) as excinfo:
        make_scenario("bogus")
    message = str(excinfo.value)
    assert "unknown scenario 'bogus'" in message
    for name in ADVERSARIAL_SCENARIOS:
        assert name in message


def test_attack_arenas_name_only_registered_scenarios():
    for name, (base, references, _duration) in ARENA_SOURCES.items():
        assert base in ADVERSARIAL_SCENARIOS, name
        for reference in references:
            assert reference in ADVERSARIAL_SCENARIOS, name


def test_cli_list_prints_the_registry():
    proc = _repro("scenario", "--list")
    assert proc.returncode == 0
    assert "available scenarios:" in proc.stdout
    for name in ADVERSARIAL_SCENARIOS:
        assert name in proc.stdout


def test_cli_unknown_name_exits_loud_with_registry():
    proc = _repro("scenario", "does-not-exist")
    assert proc.returncode != 0
    for name in sorted(ADVERSARIAL_SCENARIOS):
        assert name in proc.stderr


def test_cli_missing_name_suggests_list():
    proc = _repro("scenario")
    assert proc.returncode != 0
    assert "--list" in proc.stderr
    assert "partition-heal" in proc.stderr


def test_cli_documents_every_deployment_pattern():
    # One table, three readers: ``repro list``, the ``--deployment``
    # help and the unknown-name error all name what resolves.
    listing = _repro("list")
    usage = _repro("run", "--help")
    assert listing.returncode == 0 and usage.returncode == 0
    with pytest.raises(ValueError) as excinfo:
        resolve_deployment("atlantis9")
    help_text = "".join(usage.stdout.split())  # argparse re-wraps, also at hyphens
    assert "world-N" in listing.stdout and "world-N" in help_text
    for pattern, _description in DEPLOYMENT_PATTERNS:
        assert pattern in listing.stdout
        assert pattern in help_text
        assert pattern in str(excinfo.value)
