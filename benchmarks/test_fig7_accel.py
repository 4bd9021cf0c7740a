"""Figure 7 benchmark: the FFT accelerator.

Shape assertions (Section 5.8): the accelerator is ~30x faster than the
software FFT; M3's pipe/exec/file overheads are far below Linux's; and
the parent-side code is identical between the two M3 configurations.
"""

import pytest

from repro import params
from repro.eval import fig7_accel
from benchmarks.conftest import assert_committed


def test_fig7_accel():
    results = fig7_accel.run()
    linux = results["Linux"]
    m3_soft = results["M3"]
    m3_accel = results["M3+accelerator"]

    # "about a factor of 30" on the FFT itself.
    assert m3_soft["fft"] / m3_accel["fft"] == pytest.approx(
        params.FFT_ACCEL_SPEEDUP, rel=0.05
    )
    # End-to-end: the accelerated chain crushes both software versions.
    assert m3_accel["total"] < 0.2 * linux["total"]
    assert m3_soft["total"] < linux["total"]
    # The software FFT dominates both software configurations.
    assert m3_soft["fft"] / m3_soft["total"] > 0.9
    # M3's surrounding overhead (everything but FFT) is several times
    # smaller than Linux's — "the fast abstractions of M3 lower the bar
    # for using accelerators".
    linux_overhead = linux["total"] - linux["fft"]
    m3_overhead = m3_accel["total"] - m3_accel["fft"]
    assert m3_overhead < 0.5 * linux_overhead

    assert_committed("fig7_accel", fig7_accel.render(results))
