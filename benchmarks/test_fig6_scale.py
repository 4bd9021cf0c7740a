"""Figure 6 benchmark: scalability with a single kernel and m3fs.

Shape assertions (Section 5.7): "all benchmarks scale very well with up
to 4 instances"; at 16, find (and untar, allocation-heavy) degrade the
most, while tar and sqlite stay acceptable.
"""

from repro.eval import fig6_scale
from benchmarks.conftest import assert_committed


def test_fig6_scale(benchmark):
    results = benchmark.pedantic(fig6_scale.run, rounds=1, iterations=1)

    normalised = {
        bench: {count: norm for count, _avg, norm in series}
        for bench, series in results.items()
    }

    # Near-perfect scaling to 4 instances for every benchmark.
    for bench, series in normalised.items():
        assert series[4] <= 1.10, f"{bench} already degraded at 4: {series[4]}"

    # find degrades the most at 16 — "the performance of find and untar
    # decreases significantly".
    worst = max(normalised, key=lambda b: normalised[b][16])
    assert worst == "find"
    assert normalised["find"][16] > 1.8
    assert normalised["untar"][16] > normalised["tar"][16]
    # tar and sqlite "are still acceptable".
    assert normalised["tar"][16] < 1.4
    assert normalised["sqlite"][16] < 1.3

    assert_committed("fig6_scale", fig6_scale.render(results))
