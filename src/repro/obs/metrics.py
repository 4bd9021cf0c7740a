"""Deterministic metric primitives: log2-bucket histograms.

Buckets are fixed powers of two, so two runs of the same simulation
produce byte-identical histograms — no wall-clock, no adaptive
resizing.  Bucket 0 holds the value 0; bucket ``b`` (b >= 1) holds the
half-open range ``[2^(b-1), 2^b)``.  64 buckets cover every cycle
count a simulation can reasonably produce.

For tail quantiles (p99, p999) the 2x bucket granularity is too
coarse: every sample in ``[2^(b-1), 2^b)`` reports the same bound.
``Histogram(precision=k)`` opts into HDR-style *log-linear
sub-buckets*: each power-of-two range is split into ``2^k`` equal
linear sub-buckets (values below ``2^(k+1)`` are counted exactly), so
quantiles carry a relative error below ``2^-k`` while staying fully
deterministic — sub-bucket edges are pure functions of the value.
The default (``precision=None``) keeps the plain log2 buckets.
"""

from __future__ import annotations

import collections
from fractions import Fraction

BUCKET_COUNT = 64

#: quantile fractions are interpreted as decimals with at most this
#: denominator (0.7 means 7/10, not the nearest binary float).
_FRACTION_DENOMINATOR = 10**9


class Histogram:
    """A log2-bucket histogram of non-negative integer samples."""

    __slots__ = ("name", "counts", "count", "total", "min", "max",
                 "precision", "fine")

    def __init__(self, name: str = "", precision: int | None = None):
        self.name = name
        self.counts = [0] * BUCKET_COUNT
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None
        if precision is not None and precision < 1:
            raise ValueError(f"precision must be >= 1, got {precision}")
        self.precision = precision
        #: sub-bucket lower bound -> count (only with ``precision``).
        self.fine: dict[int, int] | None = (
            {} if precision is not None else None
        )

    def observe(self, value: int) -> None:
        """Record one sample."""
        value = int(value)
        if value < 0:
            raise ValueError(f"histogram samples must be >= 0, got {value}")
        self.counts[min(value.bit_length(), BUCKET_COUNT - 1)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if self.fine is not None:
            low, _high = self.fine_bounds(value)
            self.fine[low] = self.fine.get(low, 0) + 1

    def observe_many(self, samples) -> None:
        """Record every sample: bit for bit what one :meth:`observe`
        each leaves, at the cost of one step per *distinct* value."""
        tally = collections.Counter(samples)
        if min(tally, default=0) < 0:
            raise ValueError(f"negative histogram sample: {min(tally)}")
        for value, n in tally.items():
            self.counts[min(value.bit_length(), BUCKET_COUNT - 1)] += n
            self.count += n
            self.total += value * n
            if self.fine is not None:
                fine_low, _high = self.fine_bounds(value)
                self.fine[fine_low] = self.fine.get(fine_low, 0) + n
        if tally:
            known = () if self.min is None else (self.min, self.max)
            self.min, self.max = min((*known, *tally)), max((*known, *tally))

    @staticmethod
    def bucket_bounds(index: int) -> tuple[int, int]:
        """Half-open ``[low, high)`` range of bucket ``index``."""
        if not (0 <= index < BUCKET_COUNT):
            raise ValueError(f"bucket {index} out of range")
        if index == 0:
            return (0, 1)
        return (1 << (index - 1), 1 << index)

    def fine_bounds(self, value: int) -> tuple[int, int]:
        """Half-open ``[low, high)`` log-linear sub-bucket of ``value``.

        Requires ``precision``.  Values with at most ``precision + 1``
        significant bits are counted exactly (width-1 sub-buckets);
        above that, the power-of-two range ``[2^e, 2^(e+1))`` is split
        into ``2^precision`` sub-buckets of width ``2^(e - precision)``.
        """
        if self.precision is None:
            raise ValueError("fine_bounds requires a precision histogram")
        shift = value.bit_length() - 1 - self.precision
        if shift <= 0:
            return (value, value + 1)
        low = (value >> shift) << shift
        return (low, low + (1 << shift))

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, fraction: float) -> int:
        """Upper bound of the bucket containing the given quantile.

        Deterministic and conservative: the true value is strictly below
        the returned bound.  Edge cases are defined: an empty histogram
        returns 0; ``fraction=0.0`` returns the bound of the smallest
        sample's bucket; ``fraction=1.0`` the bound of the largest; a
        single-sample histogram returns that sample's bound for every
        fraction.  The fraction is read as a decimal — ``0.7`` selects
        rank ``ceil(0.7 * count)`` exactly, never the neighbouring rank
        that binary float rounding would pick.  With ``precision`` set,
        the bound comes from the log-linear sub-buckets (relative error
        below ``2^-precision``) instead of the 2x-granularity log2
        buckets.
        """
        if not (0.0 <= fraction <= 1.0):
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        if not self.count:
            return 0
        exact = Fraction(fraction).limit_denominator(_FRACTION_DENOMINATOR)
        rank = -(-(exact.numerator * self.count) // exact.denominator)
        seen = 0
        if self.fine is not None:
            for low in sorted(self.fine):
                seen += self.fine[low]
                if seen >= rank:
                    shift = low.bit_length() - 1 - self.precision
                    return low + (1 << shift if shift > 0 else 1)
            raise AssertionError("unreachable")  # pragma: no cover
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if bucket_count and seen >= rank:
                if index == BUCKET_COUNT - 1:
                    # the top bucket absorbs every sample too large for
                    # its nominal [2^62, 2^63) range, so its static
                    # bound is not conservative — the observed max is.
                    return self.max + 1
                return self.bucket_bounds(index)[1]
        return self.bucket_bounds(BUCKET_COUNT - 1)[1]  # pragma: no cover

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram.

        Merging is exact: the result is bit for bit the histogram one
        recorder would have produced from the union of the samples
        (same buckets, same sub-buckets, same quantile bounds).  Both
        sides must share the same ``precision``.
        """
        if other.precision != self.precision:
            raise ValueError(
                f"cannot merge precision={other.precision} histogram "
                f"into precision={self.precision}"
            )
        for index, bucket_count in enumerate(other.counts):
            if bucket_count:
                self.counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or
                                      other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or
                                      other.max > self.max):
            self.max = other.max
        if self.fine is not None and other.fine:
            for low, fine_count in other.fine.items():
                self.fine[low] = self.fine.get(low, 0) + fine_count

    def rows(self) -> list[tuple[str, int, str]]:
        """(range, count, cumulative%) rows for non-empty buckets."""
        out = []
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            seen += bucket_count
            low, high = self.bucket_bounds(index)
            out.append(
                (f"[{low:,}, {high:,})", bucket_count,
                 f"{seen / self.count:.1%}")
            )
        return out
