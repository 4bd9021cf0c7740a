"""Log2-bucket histograms: bucket maths and deterministic summaries."""

import pytest

from repro.obs.metrics import BUCKET_COUNT, Histogram


def test_bucket_bounds_partition_the_integers():
    assert Histogram.bucket_bounds(0) == (0, 1)
    previous_high = 1
    for index in range(1, BUCKET_COUNT):
        low, high = Histogram.bucket_bounds(index)
        assert low == previous_high  # contiguous, no gaps
        assert high == 2 * low
        previous_high = high


def test_samples_land_in_their_bucket():
    hist = Histogram("t")
    for value in (0, 1, 2, 3, 4, 7, 8, 1023, 1024):
        hist.observe(value)
    assert hist.counts[0] == 1  # {0}
    assert hist.counts[1] == 1  # [1, 2)
    assert hist.counts[2] == 2  # [2, 4)
    assert hist.counts[3] == 2  # [4, 8)
    assert hist.counts[4] == 1  # [8, 16)
    assert hist.counts[10] == 1  # [512, 1024)
    assert hist.counts[11] == 1  # [1024, 2048)
    assert hist.count == 9
    assert hist.min == 0 and hist.max == 1024


def test_huge_values_clamp_to_last_bucket():
    hist = Histogram()
    hist.observe(1 << 200)
    assert hist.counts[BUCKET_COUNT - 1] == 1


def test_negative_sample_rejected():
    with pytest.raises(ValueError):
        Histogram().observe(-1)


def test_mean_and_percentiles():
    hist = Histogram()
    assert hist.mean == 0.0
    assert hist.percentile(0.5) == 0
    for value in (10, 20, 30, 40):
        hist.observe(value)
    assert hist.mean == 25.0
    # p50 falls in [16, 32); the bound returned is the bucket's top.
    assert hist.percentile(0.5) == 32
    assert hist.percentile(1.0) == 64
    with pytest.raises(ValueError):
        hist.percentile(1.5)


def test_fine_bounds_partition_each_octave():
    hist = Histogram(precision=2)
    # Values with <= 3 significant bits are exact (width-1 sub-buckets).
    for value in range(8):
        assert hist.fine_bounds(value) == (value, value + 1)
    # [8, 16) splits into 2^2 = 4 sub-buckets of width 2: contiguous,
    # gap-free, and ending exactly at the octave's top.
    previous_high = 8
    for value in range(8, 16):
        low, high = hist.fine_bounds(value)
        assert low <= value < high
        assert high - low == 2
        if low == previous_high:
            previous_high = high
    assert previous_high == 16
    # An arbitrary large value keeps precision+1 significant bits.
    low, high = hist.fine_bounds(1000)
    assert (low, high) == (896, 1024)
    assert high - low == 128  # 2^(9 - 2)


def test_fine_bounds_requires_precision():
    with pytest.raises(ValueError):
        Histogram().fine_bounds(10)
    with pytest.raises(ValueError):
        Histogram(precision=0)


def test_precision_percentiles_resolve_the_tail():
    coarse = Histogram()
    fine = Histogram(precision=7)
    # 998 fast requests at 100 cycles, one straggler at 7000: the
    # coarse p999 can only answer "below 8192"; the fine histogram
    # pins the straggler to within 1/128 of its value.
    for _ in range(998):
        coarse.observe(100)
        fine.observe(100)
    coarse.observe(7000)
    fine.observe(7000)
    assert coarse.percentile(0.999) == 8192
    p999 = fine.percentile(0.999)
    assert 7000 < p999 <= 7000 * (1 + 1 / 128)
    assert p999 == 7008  # [6976, 7008): width 2^(12-7) = 32
    # The coarse buckets are still maintained (rows() unchanged).
    assert fine.counts[7] == 998  # [64, 128)


def test_precision_boundary_quantiles():
    hist = Histogram(precision=4)
    assert hist.percentile(0.0) == 0  # empty
    for value in (10, 20, 30, 40):
        hist.observe(value)
    # p0: the first non-empty sub-bucket's upper bound.  10 has 4
    # significant bits (<= precision + 1), so it is counted exactly.
    assert hist.percentile(0.0) == 11
    # p50 at an even count: threshold = 2 lands on the second sample.
    assert hist.percentile(0.5) == 21
    # p100: the bound of the sub-bucket holding the maximum.
    assert hist.percentile(1.0) == 42  # [40, 42): width 2^(5-4) = 2
    # Exact region: every distinct small value is its own sub-bucket.
    small = Histogram(precision=4)
    for value in (3, 3, 7, 9):
        small.observe(value)
    assert small.percentile(0.5) == 4
    assert small.percentile(1.0) == 10


def test_precision_zero_sample_and_determinism():
    hist = Histogram(precision=3)
    hist.observe(0)
    assert hist.percentile(0.5) == 1
    # Replayed observations give identical fine state: pure functions
    # of the sample values, no insertion-order effects.
    a, b = Histogram(precision=3), Histogram(precision=3)
    for value in (500, 17, 0, 9000, 17, 123456):
        a.observe(value)
    for value in (123456, 0, 17, 9000, 500, 17):
        b.observe(value)
    assert a.fine == b.fine
    assert [a.percentile(f) for f in (0.0, 0.5, 0.99, 1.0)] == \
        [b.percentile(f) for f in (0.0, 0.5, 0.99, 1.0)]


def test_rows_only_nonempty_buckets_with_cumulative_share():
    hist = Histogram()
    hist.observe(1)
    hist.observe(1000)
    rows = hist.rows()
    assert rows == [
        ("[1, 2)", 1, "50.0%"),
        ("[512, 1,024)", 1, "100.0%"),
    ]


def test_percentile_rank_is_exact_decimal():
    # 0.7 * 10 is 7.000000000000001 in binary floats; the rank must
    # still be ceil(7/10 * 10) = 7, i.e. the 7th sample, not the 8th.
    hist = Histogram(precision=7)
    for value in range(1, 11):
        hist.observe(value)
    assert hist.percentile(0.7) == 8  # 7th sample is 7 -> bound 8
    coarse = Histogram()
    for value in (1, 1, 1, 1, 1, 1, 1, 64, 64, 64):
        coarse.observe(value)
    assert coarse.percentile(0.7) == 2  # rank 7 stays in [1, 2)


def test_percentile_single_sample_and_extremes():
    hist = Histogram()
    hist.observe(300)
    # A single sample answers every fraction with its own bound.
    for fraction in (0.0, 0.001, 0.5, 0.999, 1.0):
        assert hist.percentile(fraction) == 512
    fine = Histogram(precision=7)
    fine.observe(300)
    for fraction in (0.0, 0.5, 1.0):
        assert fine.percentile(fraction) == 302


def test_percentile_top_bucket_uses_observed_max():
    # Values too large for the nominal top-bucket range must not
    # report a bound below themselves.
    hist = Histogram()
    hist.observe(1 << 200)
    assert hist.percentile(0.5) == (1 << 200) + 1


def test_merge_equals_monolithic():
    left, right, whole = Histogram("m"), Histogram("m"), Histogram("m")
    for value in (0, 1, 5, 900):
        left.observe(value)
        whole.observe(value)
    for value in (3, 900, 1 << 40):
        right.observe(value)
        whole.observe(value)
    left.merge(right)
    assert left.counts == whole.counts
    assert (left.count, left.total) == (whole.count, whole.total)
    assert (left.min, left.max) == (whole.min, whole.max)


def test_merge_empty_and_precision_mismatch():
    hist = Histogram(precision=3)
    hist.observe(9)
    hist.merge(Histogram(precision=3))  # merging empty is a no-op
    assert hist.count == 1 and hist.min == 9 and hist.max == 9
    empty = Histogram(precision=3)
    empty.merge(hist)  # merging into empty copies the state
    assert empty.count == 1 and empty.min == 9 and empty.max == 9
    with pytest.raises(ValueError):
        hist.merge(Histogram())
    with pytest.raises(ValueError):
        Histogram().merge(hist)
