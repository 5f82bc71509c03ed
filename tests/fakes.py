"""Test doubles for the simulator's seams.

:class:`FakeDelay` stands in for :class:`repro.net.latency_model.DelayProvider`
wherever a test wants hand-picked link delays instead of a latency
model: it serves the provider interface ``Network`` reads (scalar call,
``rows``, ``row``, ``row_array``, ``delay_floor``) from one function.
"""

import numpy as np


class FakeDelay:
    """A delay provider over ``delay(src, dst) -> seconds``.

    No eager ``rows``, so every pair goes through ``delay``, and no
    floor (``delay_floor()`` is 0.0: wide multicasts keep to the heap).
    A subclass may define ``delay`` and ``delay_floor`` as methods
    instead.  Pickles when ``delay`` does, i.e. when it is a
    module-level function or a method of a picklable subclass.
    """

    rows = None

    def __init__(self, delay=None):
        if delay is not None:
            self.delay = delay

    def __call__(self, a, b):
        return self.delay(a, b)

    def row(self, src):
        return _Row(self.delay, src)

    row_array = row

    def delay_floor(self):
        return 0.0


class _Row:
    """``src``'s delays, computed per entry: an int index answers a
    float (``fan_out``), an index array a fresh float64 array (the
    store's gather)."""

    __slots__ = ("delay", "src")

    def __init__(self, delay, src):
        self.delay = delay
        self.src = src

    def __getitem__(self, dst):
        if isinstance(dst, np.ndarray):
            return np.array(
                [self.delay(self.src, d) for d in dst.tolist()], dtype=np.float64
            )
        return self.delay(self.src, dst)
