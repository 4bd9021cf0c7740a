"""Figure 5 benchmark: application-level benchmarks.

Shape assertions (Section 5.6):
- cat+tr: "M3 is about twice as fast".
- tar/untar: "M3 requires only 20% and 16% ... of the time Linux takes"
  (we accept the same direction within a tolerant band).
- find: "Linux is slightly faster" than M3.
- sqlite: "only slightly faster on M3" (compute-dominated).
"""

from repro.eval import fig5_apps
from benchmarks.conftest import assert_committed


def test_fig5_apps():
    results = fig5_apps.run()

    def ratio(name):
        return results[name]["M3"]["total"] / results[name]["Lx"]["total"]

    # cat+tr about twice as fast on M3.
    assert 0.35 <= ratio("cat+tr") <= 0.65, ratio("cat+tr")
    # tar and untar: M3 several times faster (paper: 20%/16%).
    assert ratio("tar") <= 0.40, ratio("tar")
    assert ratio("untar") <= 0.40, ratio("untar")
    # find: Linux slightly faster.
    assert 1.0 < ratio("find") <= 1.25, ratio("find")
    # sqlite: M3 only slightly faster.
    assert 0.85 <= ratio("sqlite") < 1.0, ratio("sqlite")

    # Lx-$ sits between M3 and Lx wherever copies matter.
    for name in ("cat+tr", "tar", "untar"):
        systems = results[name]
        assert systems["M3"]["total"] < systems["Lx-$"]["total"] <= \
            systems["Lx"]["total"]

    # The App stacks are identical across systems for the native pair
    # and the trace replays (same computation on both systems).
    for name, systems in results.items():
        assert systems["M3"]["app"] == systems["Lx"]["app"]

    assert_committed("fig5_apps", fig5_apps.render(results))
