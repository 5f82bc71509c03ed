"""Property tests for the measurement-plane sketches.

Two families of guarantees back the campaign plane:

* **Merge algebra** -- ``merge`` is associative and commutative with the
  fresh sketch as identity, across *arbitrary* shard splits of a value
  stream.  This is what lets ``run_campaign`` fold per-shard sketches in
  any grouping and land on the serial answer.
* **Quantile accuracy** -- ``quantile(q)`` stays within the documented
  ``error_bound()`` (relative) of the exact linear-interpolated
  percentile for every in-domain distribution, including the shapes
  that break naive histograms: bimodal with widely separated modes,
  heavy tails, constants and single samples.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import LogHistogram, MetricsSketch
from repro.workloads import percentile


def _fold_values(values, bins_per_decade=100):
    hist = LogHistogram(bins_per_decade=bins_per_decade)
    for value in values:
        hist.add(value)
    return hist


def _assert_hist_equal(left: LogHistogram, right: LogHistogram):
    """Field-by-field equality; ``total`` is a float sum whose value
    depends on add-order association, so it gets a tight isclose."""
    assert left.counts == right.counts
    assert left.count == right.count
    assert left.min == right.min
    assert left.max == right.max
    assert left.clamped_low == right.clamped_low
    assert left.clamped_high == right.clamped_high
    assert math.isclose(left.total, right.total, rel_tol=1e-12, abs_tol=1e-300)


@st.composite
def latency_streams(draw):
    """Seeded value streams over the histogram's domain, mixed shapes."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    count = draw(st.integers(min_value=0, max_value=400))
    shape = draw(st.sampled_from(["uniform", "lognormal", "bimodal"]))
    rng = random.Random(repr((seed, shape)))
    if shape == "uniform":
        return [10.0 ** rng.uniform(-5.0, 3.0) for _ in range(count)]
    if shape == "lognormal":
        return [math.exp(rng.gauss(-1.5, 1.0)) for _ in range(count)]
    return [
        rng.uniform(0.001, 0.002) if rng.random() < 0.5 else rng.uniform(5.0, 9.0)
        for _ in range(count)
    ]


@st.composite
def split_streams(draw):
    """A stream plus a random partition of it into contiguous shards."""
    values = draw(latency_streams())
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=len(values)),
                min_size=0,
                max_size=4,
            )
        )
    )
    shards = []
    start = 0
    for cut in cuts + [len(values)]:
        shards.append(values[start:cut])
        start = cut
    return values, shards


@settings(max_examples=60, deadline=None)
@given(split_streams())
def test_merge_over_any_shard_split_equals_whole(case):
    values, shards = case
    whole = _fold_values(values)
    merged = LogHistogram()
    for shard in shards:
        merged.merge(_fold_values(shard))
    _assert_hist_equal(merged, whole)


@settings(max_examples=40, deadline=None)
@given(latency_streams(), latency_streams())
def test_merge_commutes(left_values, right_values):
    ab = _fold_values(left_values).merge(_fold_values(right_values))
    ba = _fold_values(right_values).merge(_fold_values(left_values))
    assert ab.counts == ba.counts
    assert ab.count == ba.count
    assert ab.min == ba.min
    assert ab.max == ba.max
    # a+b vs b+a: same two floats, addition is commutative -- exact.
    assert ab.total == ba.total


@settings(max_examples=40, deadline=None)
@given(latency_streams(), latency_streams(), latency_streams())
def test_merge_associates(a_values, b_values, c_values):
    left = _fold_values(a_values).merge(
        _fold_values(b_values).merge(_fold_values(c_values))
    )
    right = _fold_values(a_values).merge(_fold_values(b_values)).merge(
        _fold_values(c_values)
    )
    _assert_hist_equal(left, right)


@settings(max_examples=40, deadline=None)
@given(latency_streams())
def test_fresh_histogram_is_merge_identity(values):
    folded = _fold_values(values)
    left_identity = LogHistogram().merge(_fold_values(values))
    right_identity = _fold_values(values).merge(LogHistogram())
    _assert_hist_equal(left_identity, folded)
    _assert_hist_equal(right_identity, folded)


def test_merge_rejects_mismatched_geometry():
    with pytest.raises(ValueError, match="different geometry"):
        LogHistogram(bins_per_decade=100).merge(LogHistogram(bins_per_decade=50))


def test_from_state_refuses_a_foreign_domain():
    state = LogHistogram().state_dict()
    state["lo"] = 1e-3
    with pytest.raises(ValueError, match="expected"):
        LogHistogram.from_state(state)


# ----------------------------------------------------------------------
# Quantile accuracy vs the exact percentile
# ----------------------------------------------------------------------
_QS = (0.0, 0.01, 0.25, 0.50, 0.90, 0.99, 1.0)


def _assert_quantiles_within_bound(values, bins_per_decade=100):
    hist = _fold_values(values, bins_per_decade)
    bound = hist.error_bound()
    exact_sorted = sorted(values)
    for q in _QS:
        got = hist.quantile(q)
        want = percentile(exact_sorted, q)
        assert abs(got - want) <= bound * abs(want) + 1e-15, (
            f"q={q}: sketch {got!r} vs exact {want!r} "
            f"(bound {bound:.4%}, n={len(values)})"
        )


@settings(max_examples=60, deadline=None)
@given(
    latency_streams().filter(bool),
    st.sampled_from([20, 50, 100, 200]),
)
def test_quantiles_within_documented_bound(values, bins_per_decade):
    _assert_quantiles_within_bound(values, bins_per_decade)


def test_quantiles_bimodal_separated_modes():
    rng = random.Random(7)
    values = [
        rng.uniform(0.0005, 0.0006) if k % 2 else rng.uniform(100.0, 120.0)
        for k in range(501)
    ]
    _assert_quantiles_within_bound(values)


def test_quantiles_heavy_tail():
    rng = random.Random(11)
    # Pareto-ish: a few samples orders of magnitude above the median.
    values = [0.01 * (rng.random() ** -1.5) for _ in range(1000)]
    values = [min(v, 9e3) for v in values]  # stay in-domain
    _assert_quantiles_within_bound(values)


def test_quantiles_constant_input_exact():
    hist = _fold_values([0.125] * 64)
    for q in _QS:
        # The [min, max] clamp makes constants exact, not just bounded.
        assert hist.quantile(q) == 0.125


def test_quantiles_single_sample_exact():
    hist = _fold_values([3.7])
    for q in _QS:
        assert hist.quantile(q) == 3.7


def test_quantile_of_empty_histogram_is_nan():
    assert math.isnan(LogHistogram().quantile(0.5))


def test_out_of_domain_values_are_clamped_and_counted():
    hist = LogHistogram()
    hist.add(1e-9)
    hist.add(1e9)
    assert hist.clamped_low == 1
    assert hist.clamped_high == 1
    # min/max stay exact even for clamped values.
    assert hist.min == 1e-9
    assert hist.max == 1e9


# ----------------------------------------------------------------------
# MetricsSketch: the composite unit inherits the algebra
# ----------------------------------------------------------------------
def _fold_commits(commits):
    sketch = MetricsSketch()
    for commit_time, latency, payload in commits:
        sketch.observe(commit_time, latency, payload)
    return sketch


@st.composite
def commit_streams(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    count = draw(st.integers(min_value=0, max_value=200))
    rng = random.Random(seed)
    now = 0.0
    commits = []
    for _ in range(count):
        now += rng.expovariate(10.0)
        commits.append((now, math.exp(rng.gauss(-1.5, 0.7)), rng.randrange(1, 1001)))
    return commits


@settings(max_examples=40, deadline=None)
@given(commit_streams(), st.integers(min_value=1, max_value=5))
def test_sketch_shard_split_matches_whole(commits, shards):
    whole = _fold_commits(commits)
    merged = MetricsSketch()
    for shard in range(shards):
        merged.merge(_fold_commits(commits[shard::shards]))
    assert merged.blocks == whole.blocks
    assert merged.requests == whole.requests
    assert merged.hist.counts == whole.hist.counts
    assert _windows_close(merged, whole)
    summary_merged = merged.summary()
    summary_whole = whole.summary()
    assert (summary_merged is None) == (summary_whole is None)
    if summary_whole is not None:
        for key in ("p50", "p90", "p99"):
            assert summary_merged[key] == summary_whole[key]
        assert math.isclose(
            summary_merged["mean"], summary_whole["mean"], rel_tol=1e-12
        )


def _windows_close(merged, whole):
    left = merged.windows.state_dict()["windows"]
    right = whole.windows.state_dict()["windows"]
    if len(left) != len(right):
        return False
    for (li, lr, lb, ls), (ri, rr, rb, rs) in zip(left, right):
        if (li, lr, lb) != (ri, rr, rb):
            return False
        if not math.isclose(ls, rs, rel_tol=1e-12, abs_tol=1e-300):
            return False
    return True


@settings(max_examples=40, deadline=None)
@given(commit_streams())
def test_sketch_state_roundtrip_preserves_everything(commits):
    sketch = _fold_commits(commits)
    restored = MetricsSketch.from_state(sketch.state_dict())
    assert restored.state_dict() == sketch.state_dict()
    assert restored.summary() == sketch.summary()


@settings(max_examples=40, deadline=None)
@given(latency_streams())
def test_histogram_scalars_match_naive(values):
    hist = _fold_values(values)
    assert hist.count == len(values)
    if values:
        assert hist.min == min(values)
        assert hist.max == max(values)
        assert math.isclose(
            hist.mean(), sum(values) / len(values), rel_tol=1e-12
        )
    else:
        assert math.isnan(hist.mean())
