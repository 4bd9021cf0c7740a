"""Figure 4: read/write time depending on file fragmentation.

"for reading, the 2 MiB large file was prepared to have 16 to 2048
blocks per extent.  And for writing we let the application allocate the
corresponding number of blocks at once.  As the results show, the sweet
spot is 256 blocks" (Section 5.5).
"""

from __future__ import annotations

from repro import params
from repro.eval.common import single
from repro.eval.report import render_table
from repro.m3.lib.file import OpenFlags
from repro.m3.system import M3System
from repro.workloads.data import deterministic_bytes
from repro.workloads.micro import m3_read, m3_write

FILE_BYTES = params.MICRO_FILE_BYTES
BUFFER = params.MICRO_BUFFER_BYTES
BLOCKS_PER_EXTENT = [16, 32, 64, 128, 256, 512, 1024, 2048]


def read_time(blocks_per_extent: int) -> int:
    """Cycles to read the 2 MiB file fragmented at the given granularity."""
    system = M3System(pe_count=4).boot()
    system.fs_preload(
        {"/frag.dat": deterministic_bytes("frag", FILE_BYTES)},
        extent_blocks=blocks_per_extent,
    )

    def app(env):
        # warmup: session + first-open costs out of the measured window
        probe = yield from env.vfs.open("/frag.dat", OpenFlags.R)
        yield from probe.read(BUFFER)
        yield from probe.close()
        start = env.sim.now
        yield from m3_read(env, "/frag.dat", BUFFER)
        return env.sim.now - start

    return system.run_app(app, name="frag-read")


def write_time(blocks_per_extent: int) -> int:
    """Cycles to write 2 MiB allocating ``blocks_per_extent`` at once."""
    system = M3System(pe_count=4).boot(
        fs_kwargs={"append_blocks": blocks_per_extent})
    payload = deterministic_bytes("frag-w", BUFFER)

    def app(env):
        # warmup: session establishment
        yield from env.vfs.stat("/")
        start = env.sim.now
        yield from m3_write(env, "/new.dat", payload, FILE_BYTES)
        return env.sim.now - start

    return system.run_app(app, name="frag-write")


def run() -> list[tuple[int, int, int]]:
    """(blocks_per_extent, read_cycles, write_cycles) rows."""
    return [
        (blocks, read_time(blocks), write_time(blocks))
        for blocks in BLOCKS_PER_EXTENT
    ]


def render(rows: list[tuple[int, int, int]]) -> str:
    """The ``results/fig4_extents.txt`` table for :func:`run`'s rows."""
    return render_table(
        "Figure 4: read/write time vs blocks per extent (2 MiB file)",
        ["blocks/extent", "read (cycles)", "write (cycles)"],
        rows,
    )


EVAL = single("fig4_extents", run, render)
