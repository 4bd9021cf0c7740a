"""Figure 3 benchmark: syscalls and file operations.

Shape assertions from the paper (Section 5.3-5.4):
- M3 null syscall ~200 cycles (~30 transfer + ~170 software); Linux 410.
- M3 beats Linux on read/write/pipe by several times; Lx-$ in between.
- M3's time is transfer-dominated; Linux's is OS-dominated.
"""

from repro.eval import fig3_micro
from benchmarks.conftest import assert_committed


def test_fig3_micro(benchmark):
    results = benchmark.pedantic(fig3_micro.run, rounds=1, iterations=1)

    syscall = results["syscall"]
    assert 150 <= syscall["M3"]["total"] <= 260  # "about 200 cycles"
    assert syscall["Lx"]["total"] == 410
    assert 20 <= syscall["M3"]["xfers"] <= 45  # "about 30 cycles" transfers
    assert 140 <= syscall["M3"]["other"] <= 200  # "the other 170 cycles"

    for op in ("read", "write", "pipe"):
        m3 = results[op]["M3"]["total"]
        lx = results[op]["Lx"]["total"]
        lx_cache = results[op]["Lx-$"]["total"]
        # M3 wins by a clear factor; the warm-cache variant sits between.
        assert lx / m3 > 2.5, f"{op}: Lx/M3 = {lx / m3:.2f}"
        assert m3 < lx_cache < lx, f"{op}: ordering broken"
        # "a large portion of the difference is made up by data transfers":
        # M3's stack is transfer-dominated, Linux's is not.
        assert results[op]["M3"]["xfers"] > results[op]["M3"]["other"]
        assert results[op]["Lx"]["other"] > results[op]["M3"]["other"]

    # Write is more expensive than read on Linux (block zeroing).
    assert results["write"]["Lx"]["total"] > results["read"]["Lx"]["total"]

    assert_committed("fig3_micro", fig3_micro.render(results))
