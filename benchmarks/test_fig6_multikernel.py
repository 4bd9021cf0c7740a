"""Figure 6 rerun with a partitioned mesh (multi-kernel scale-out).

Shape assertions (Section 7): splitting the mesh into kernel domains,
each with its own kernel and m3fs instance, shrinks the 16-instance
degradation — the per-instance average strictly improves from 1 to 4
domains for both find and untar.
"""

from repro.eval import fig6_multikernel
from benchmarks.conftest import assert_committed


def test_fig6_multikernel():
    results = fig6_multikernel.run()

    averages = {
        bench: {count: avg for count, avg, _norm in series}
        for bench, series in results.items()
    }

    # Strictly improving with every added kernel domain.
    for bench in ("find", "untar"):
        series = averages[bench]
        assert series[2] < series[1], f"{bench} did not improve at 2 domains"
        assert series[4] < series[2], f"{bench} did not improve at 4 domains"

    # find is contention-dominated: two domains roughly halve its
    # per-instance time, well beyond untar's DRAM-bound improvement.
    assert averages["find"][2] < 0.6 * averages["find"][1]
    assert averages["untar"][4] < 0.9 * averages["untar"][1]

    assert_committed("fig6_multikernel", fig6_multikernel.render(results))
