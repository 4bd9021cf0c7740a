"""Property tests: histogram merges are exact.

The telemetry plane folds per-flush histograms into the open epoch's
live one; these properties pin the merge to be indistinguishable —
bucket for bucket, sub-bucket for sub-bucket, quantile for quantile —
from a single histogram fed the union of the samples.
"""

import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram

# Cycle-count-shaped samples: heavy at small values, tail into the
# clamped top bucket.
samples = st.lists(
    st.integers(min_value=0, max_value=1 << 70), max_size=60
)
precisions = st.one_of(st.none(), st.integers(min_value=1, max_value=8))
fractions = st.sampled_from(
    [0.0, 0.001, 0.25, 0.5, 0.7, 0.9, 0.99, 0.999, 1.0]
)


def _fill(values, precision):
    hist = Histogram("p", precision=precision)
    for value in values:
        hist.observe(value)
    return hist


def _same(a: Histogram, b: Histogram) -> None:
    assert a.counts == b.counts
    assert a.fine == b.fine
    assert (a.count, a.total, a.min, a.max) == \
        (b.count, b.total, b.min, b.max)


@settings(max_examples=120, deadline=None)
@given(samples, samples, precisions)
def test_merge_of_shards_equals_monolithic(left, right, precision):
    merged = _fill(left, precision)
    merged.merge(_fill(right, precision))
    _same(merged, _fill(left + right, precision))


@settings(max_examples=80, deadline=None)
@given(samples, samples, samples, precisions, fractions)
def test_merge_preserves_quantiles_and_is_associative(
    a, b, c, precision, fraction
):
    whole = _fill(a + b + c, precision)
    left_first = _fill(a, precision)
    left_first.merge(_fill(b, precision))
    left_first.merge(_fill(c, precision))
    right_first = _fill(a, precision)
    tail = _fill(b, precision)
    tail.merge(_fill(c, precision))
    right_first.merge(tail)
    _same(left_first, whole)
    _same(right_first, whole)
    assert left_first.percentile(fraction) == whole.percentile(fraction)


@settings(max_examples=80, deadline=None)
@given(samples, samples, samples, precisions, fractions)
def test_merge_into_live_histogram_equals_monolithic(
    left, right, later, precision, fraction
):
    # The path the telemetry window fold takes: merge into a live
    # histogram that keeps recording afterwards — still exact.
    live = _fill(left, precision)
    live.merge(_fill(right, precision))
    for value in later:
        live.observe(value)
    whole = _fill(left + right + later, precision)
    _same(live, whole)
    assert live.percentile(fraction) == whole.percentile(fraction)


# -- observe_many: the fold the Observer's buffered samples go through --------


def array_or_list(values):
    """The Observer buffers into ``array('q')``; samples too large for
    one (the clamped top bucket's) stay a list."""
    try:
        return array.array("q", values)
    except OverflowError:
        return values


@settings(max_examples=120, deadline=None)
@given(samples, samples, st.sampled_from([None, 7]))
def test_observe_many_equals_one_observe_per_sample(first, later, precision):
    # Two folds, as two epoch closes make them: into an empty histogram,
    # then into one that already holds samples.
    folded = Histogram("p", precision=precision)
    folded.observe_many(first)
    folded.observe_many(array_or_list(later))
    whole = _fill(first + later, precision)
    _same(folded, whole)
    # Sub-buckets appear in first-occurrence order either way.
    assert folded.fine is None or list(folded.fine) == list(whole.fine)
    for fraction in (0.5, 0.99, 1.0):
        assert folded.percentile(fraction) == whole.percentile(fraction)


@given(samples, st.integers(max_value=-1), precisions)
def test_observe_many_rejects_a_negative_sample_untouched(
    values, negative, precision
):
    hist = _fill(values, precision)
    with pytest.raises(ValueError):
        hist.observe_many([*values, negative])
    _same(hist, _fill(values, precision))
