"""Section 5.2 benchmark: Linux on Xtensa vs ARM.

Paper numbers: syscall 410 (Xtensa) / 320 (ARM); creating a 2 MiB file
has ~2.2 M / ~2.4 M cycles overhead; copying it ~3.2 M on both.
"""

from repro.eval import tab_arm
from benchmarks.conftest import assert_committed


def test_tab_arm():
    rows = tab_arm.run()
    metrics = {name: (xtensa, arm) for name, xtensa, arm in rows}

    syscall = metrics["null syscall (cycles)"]
    assert syscall == (410, 320)  # exact paper values

    create = metrics["create 2 MiB file, overhead (cycles)"]
    copy = metrics["copy 2 MiB file, overhead (cycles)"]
    # Magnitudes within ~25% of the paper's 2.2M/2.4M and 3.2M/3.2M.
    assert 1.65e6 <= create[0] <= 2.75e6
    assert 1.8e6 <= create[1] <= 3.0e6
    assert create[1] > create[0]  # ARM slightly higher, as reported
    assert 2.4e6 <= copy[0] <= 4.0e6
    assert 2.4e6 <= copy[1] <= 4.0e6
    # "3.2 million cycles overhead on both architectures": near-equal.
    assert abs(copy[0] - copy[1]) / copy[0] < 0.10

    assert_committed("tab_arm", tab_arm.render(rows))
