"""Figure 4 benchmark: read/write time vs blocks per extent.

Shape assertions (Section 5.5): times fall monotonically with extent
size, improvements beyond the 256-block sweet spot are marginal, and
the fragmented (16-block) end is clearly worse.
"""

from repro import params
from repro.eval import fig4_extents
from benchmarks.conftest import assert_committed


def test_fig4_extents(benchmark):
    rows = benchmark.pedantic(fig4_extents.run, rounds=1, iterations=1)
    by_blocks = {blocks: (read, write) for blocks, read, write in rows}

    reads = [read for _b, read, _w in rows]
    writes = [write for _b, _r, write in rows]
    # Monotone improvement with larger extents.
    assert all(a >= b for a, b in zip(reads, reads[1:]))
    assert all(a >= b for a, b in zip(writes, writes[1:]))

    # The fragmented end is visibly worse than the sweet spot...
    assert by_blocks[16][0] > 1.10 * by_blocks[256][0]
    assert by_blocks[16][1] > 1.10 * by_blocks[256][1]
    # ...while everything beyond 256 gains almost nothing ("the sweet
    # spot is 256 blocks").  Writes keep a little allocation overhead
    # per extent, so their plateau tolerance is slightly wider.
    assert by_blocks[256][0] < 1.02 * by_blocks[2048][0]
    assert by_blocks[256][1] < 1.06 * by_blocks[2048][1]
    assert params.M3FS_APPEND_BLOCKS == 256

    assert_committed("fig4_extents", fig4_extents.render(rows))
