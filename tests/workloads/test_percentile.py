"""Regression tests pinning ``percentile`` to numpy's linear method.

The audit that motivated these: ``percentile`` claims bit-for-bit
equality with ``numpy.quantile(values, q, method="linear")``.  Every
sketch-accuracy bound in the measurement plane is stated relative to
this function, so it must track numpy exactly -- including the
numerically-symmetric lerp numpy switched to (anchoring at the upper
order statistic once the interpolation fraction reaches 0.5).
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import percentile

_QS = (0.0, 0.001, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0)


def _numpy_linear(values, q):
    return float(np.quantile(np.asarray(values, dtype=float), q, method="linear"))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(
            min_value=1e-9, max_value=1e9, allow_nan=False, allow_infinity=False
        ),
        min_size=1,
        max_size=60,
    ),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_percentile_matches_numpy_bitwise(values, q):
    values.sort()
    assert percentile(values, q) == _numpy_linear(values, q)


def test_percentile_fixed_cases_match_numpy():
    rng = random.Random(13)
    for n in (1, 2, 3, 4, 5, 10, 101, 1000):
        values = sorted(rng.lognormvariate(0.0, 2.0) for _ in range(n))
        for q in _QS:
            assert percentile(values, q) == _numpy_linear(values, q), (n, q)


def test_percentile_interpolation_fraction_half_is_symmetric():
    # Two elements at q=0.5: pos = 0.5 -- the case where the asymmetric
    # lerp ``lo + frac*(hi-lo)`` can differ from numpy's upper-anchored
    # form in the last ulp.
    values = [0.1, 0.30000000000000004]
    for q in (0.5, 0.25, 0.75):
        assert percentile(values, q) == _numpy_linear(values, q)


def test_percentile_boundaries_and_clamping():
    values = [1.0, 2.0, 4.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0
    # Out-of-range q clamps (numpy raises; callers treat q as a ratio).
    assert percentile(values, -0.5) == 1.0
    assert percentile(values, 1.5) == 4.0


def test_percentile_single_sample():
    for q in _QS:
        assert percentile([7.5], q) == 7.5


def test_percentile_empty_is_nan():
    assert math.isnan(percentile([], 0.5))


def test_percentile_exact_order_statistics():
    values = [float(v) for v in range(11)]
    # q landing exactly on an order statistic returns it untouched.
    for k in range(11):
        assert percentile(values, k / 10) == float(k)


def test_percentile_constant_input():
    values = [3.25] * 9
    for q in _QS:
        assert percentile(values, q) == 3.25
