"""cat+tr: the paper's hand-written benchmark (Section 5.6).

"creates a child process/VPE and lets it write a 64 KiB large file into
a pipe, while the parent reads from that pipe, replaces all occurrences
of 'a' with 'b' and writes the result into a new file" — the same code
shape on both systems, differing only in the OS API.
"""

from __future__ import annotations

import math

from repro import params
from repro.m3.lib.file import OpenFlags
from repro.m3.lib.pipe import Pipe, PipeWriter
from repro.m3.lib.vpe import VPE

CHUNK = 4 * 1024

INPUT_PATH = "/cat-input.txt"
OUTPUT_PATH = "/cat-output.txt"


def _tr_cycles(nbytes: int) -> int:
    return max(1, math.ceil(params.TR_CYCLES_PER_BYTE * nbytes))


def input_bytes() -> bytes:
    """The 64 KiB input, containing plenty of 'a's to translate."""
    pattern = b"the cat sat on a mat and ate a banana, as cats do. "
    data = pattern * (params.CAT_TR_FILE_BYTES // len(pattern) + 1)
    return data[: params.CAT_TR_FILE_BYTES]


# -- M3 ----------------------------------------------------------------------


def m3_cat_child(env, mem_sel, sgate_sel, ring, slots, spin, input_path):
    """The 'cat' half: file -> pipe."""
    env.spin_io = spin
    writer = yield from PipeWriter.attach(env, mem_sel, sgate_sel, ring, slots)
    file = yield from env.vfs.open(input_path, OpenFlags.R)
    while True:
        chunk = yield from file.read(CHUNK)
        if not chunk:
            break
        yield from writer.write(chunk)
    yield from file.close()
    yield from writer.close()
    return ()


def m3_cat_tr(env, spin: bool = False, prefix: str = ""):
    """The parent: pipe -> tr -> output file.  Returns (wall, ledger).

    Reader and writer overlap, quantifying the "M3 could achieve better
    performance by letting reader and writer work in parallel" remark of
    Section 5.6.
    """
    env.spin_io = spin
    start = env.sim.now
    snapshot = env.sim.ledger.snapshot()
    pipe = yield from Pipe.create(env)
    child = yield from VPE.create(env, f"cat{prefix}".replace("/", "-"))
    child_args = yield from pipe.delegate_writer(child)
    yield from child.run(m3_cat_child, *child_args, spin, prefix + INPUT_PATH)
    reader = yield from pipe.reader().open()
    out = yield from env.vfs.open(prefix + OUTPUT_PATH,
                                  OpenFlags.W | OpenFlags.CREATE)
    while True:
        chunk = yield from reader.read(CHUNK)
        if not chunk:
            break
        yield env.compute(_tr_cycles(len(chunk)))
        yield from out.write(chunk.replace(b"a", b"b"))
    yield from out.close()
    yield from child.wait()
    return env.sim.now - start, env.sim.ledger.since(snapshot)


# -- Linux ---------------------------------------------------------------------


def _lx_cat_child(lx, write_fd, input_path):
    from repro.linuxsim.machine import O_RDONLY

    fd = yield from lx.open(input_path, O_RDONLY)
    while True:
        chunk = yield from lx.read(fd, CHUNK)
        if not chunk:
            break
        yield from lx.write(write_fd, chunk)
    yield from lx.close(fd)
    yield from lx.close(write_fd)
    return ()


def linux_cat_tr(lx):
    """The Linux twin of :func:`m3_cat_tr`; returns (wall, ledger)."""
    from repro.linuxsim.machine import O_CREAT, O_WRONLY

    start = lx.sim.now
    snapshot = lx.sim.ledger.snapshot()
    read_fd, write_fd = yield from lx.pipe()
    child = yield from lx.fork(_lx_cat_child, write_fd, INPUT_PATH,
                               name="cat")
    yield from lx.close(write_fd)
    out_fd = yield from lx.open(OUTPUT_PATH, O_WRONLY | O_CREAT)
    while True:
        chunk = yield from lx.read(read_fd, CHUNK)
        if not chunk:
            break
        yield lx.compute(_tr_cycles(len(chunk)))
        yield from lx.write(out_fd, chunk.replace(b"a", b"b"))
    yield from lx.close(out_fd)
    yield from lx.close(read_fd)
    yield from lx.waitpid(child)
    return lx.sim.now - start, lx.sim.ledger.since(snapshot)
