"""Benchmark scale control.

Benchmarks default to CI-friendly reduced parameters; set ``REPRO_FULL=1``
to run at paper scale (long wall-clock).  Each bench prints the table its
figure reports (visible with ``pytest -s`` or in the benchmark extra
info).

Timing comes from the pytest-benchmark plugin when it is installed.
Without it, a stand-in ``benchmark`` fixture runs each bench once, so
``make bench-figures`` still runs every figure driver on a plain
``numpy pytest hypothesis`` install.
"""

import os

import pytest

try:
    import pytest_benchmark  # noqa: F401
except ImportError:
    pytest_benchmark = None


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL", "0") == "1"


@pytest.fixture(scope="session")
def scale():
    return "full" if full_scale() else "ci"


if pytest_benchmark is None:

    class _RunOnce:
        """The slice of pytest-benchmark's fixture the benches use."""

        def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1, **_):
            return fn(*args, **(kwargs or {}))

    @pytest.fixture
    def benchmark():
        return _RunOnce()
