"""Sampling per-layer tracer: which ``src/repro`` module is the CPU in?

``signal.setitimer(ITIMER_PROF)`` fires every 2 ms of process CPU time
(the kernel rounds that to its tick: about 240 Hz here).  Each sample
is charged to the *layer* of the innermost stack frame whose file lies
under the ``repro`` package -- so C builtins, numpy and the stdlib are
charged to the layer that called them -- as ``self_s``, and once to
every distinct layer on the stack as ``incl_s``.

A sample's weight is the process CPU time since the previous sample,
not 1: Python runs signal handlers between bytecodes, so ticks that
land inside one long C call (a numpy sort over a million rows) collapse
into a single late sample.  Weighting by elapsed CPU charges that whole
call to its caller instead of losing it, and makes the ``self_s``
column sum to the traced CPU time exactly.

A deterministic profiler (cProfile) was measured and rejected as the
ledger's instrument: see "Sampler vs cProfile" in README.md.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, Optional

#: Second path component kept as its own layer; everything else in the
#: package collapses into the package's catch-all (right column).
_SPLIT = {
    "sim": (("network",), "engine"),
    "consensus": (("pbft", "hotstuff", "kauri"), "base"),
    "core": (("log", "timeouts", "suspicion", "latency"), "other"),
}

#: One-component layers: the remaining packages under ``src/repro``.
_FLAT = (
    "net", "crypto", "optimize", "tree", "aware", "faults", "workloads",
    "metrics", "experiments",
)

#: Frames outside ``repro`` with no ``repro`` caller, and ``repro/bench``
#: (superseded by this ledger, never on a ledger stack).
OTHER = "other"

LAYERS = tuple(
    f"{package}.{name}"
    for package, (named, rest) in _SPLIT.items()
    for name in named + (rest,)
) + _FLAT + (OTHER,)


def layer_of(path: str, root: str) -> str:
    """Layer of source file ``path``; ``root`` is the ``repro`` package
    directory.  Decided by path alone, so a new file lands in a layer
    without a table to maintain."""
    if not path.startswith(root + os.sep):
        return OTHER
    parts = path[len(root) + 1:].split(os.sep)
    package = parts[0]
    if len(parts) == 1:
        # repro/__init__.py, repro/__main__.py: the CLI over experiments.
        return "experiments"
    if package in _SPLIT:
        named, rest = _SPLIT[package]
        module = parts[1][:-3] if parts[1].endswith(".py") else parts[1]
        return f"{package}.{module if module in named else rest}"
    return package if package in _FLAT else OTHER


class Sampler:
    """CPU-time sampler over the main thread; ``start()`` .. ``stop()``."""

    def __init__(self, root: str, interval: float = 0.002):
        self.root = root
        self.interval = interval
        self.samples = 0
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.incl_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self._layer_of_file: Dict[str, Optional[str]] = {}
        self._last = 0.0
        self._previous_handler = None

    def start(self) -> None:
        self._last = time.process_time()
        self._previous_handler = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, self._previous_handler)

    def _sample(self, signum, frame) -> None:
        now = time.process_time()
        weight = now - self._last
        self._last = now
        self.samples += 1
        cache = self._layer_of_file
        innermost = None
        seen = set()
        while frame is not None:
            filename = frame.f_code.co_filename
            try:
                layer = cache[filename]
            except KeyError:
                layer = layer_of(filename, self.root)
                # Non-repro frames are transparent: their time belongs
                # to whichever layer called them.
                layer = cache[filename] = None if layer == OTHER else layer
            if layer is not None:
                if innermost is None:
                    innermost = layer
                seen.add(layer)
            frame = frame.f_back
        if innermost is None:
            innermost = OTHER
            seen.add(OTHER)
        self.self_s[innermost] += weight
        for layer in seen:
            self.incl_s[layer] += weight
