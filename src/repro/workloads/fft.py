"""The FFT filter chain (Section 5.8, Figure 7).

A parent generates 32 KiB of random numbers and writes them into a
pipe; the FFT application reads from the pipe, transforms the data, and
writes the result to a file.  Three configurations:

- Linux, software FFT (fork + execve + pipe + file),
- M3 on standard cores, the same software FFT,
- M3 with the FFT accelerator core — "the code for the parent is
  identical for the software version and the accelerator version.  It
  merely receives a different path to the executable".

The FFT computation itself is charged under the dedicated ``fft``
ledger tag so the figure's stacks can be reconstructed.
"""

from __future__ import annotations

import math

from repro import params
from repro.m3.lib.file import OpenFlags
from repro.m3.lib.pipe import Pipe, PipeReader
from repro.m3.lib.vpe import VPE
from repro.workloads.data import deterministic_bytes

CHUNK = 4 * 1024
OUTPUT_PATH = "/fft-out.dat"

#: the two "executables"; which one the parent receives decides the
#: core the child runs on.
FFT_SW_BINARY = "/bin/fft"
FFT_ACCEL_BINARY = "/bin/fft-accel"
BINARY_BYTES = 32 * 1024


def _gen_cycles(nbytes: int) -> int:
    return max(1, math.ceil(params.RAND_GEN_CYCLES_PER_BYTE * nbytes))


# -- M3 ----------------------------------------------------------------------


def m3_fft_program(env, mem_sel, rgate_sel):
    """The FFT application: pipe -> FFT -> file.  Registered under both
    binary names; the PE it lands on prices the ``fft`` operation."""
    reader = yield from PipeReader.attach(env, mem_sel, rgate_sel)
    out = yield from env.vfs.open(OUTPUT_PATH, OpenFlags.W | OpenFlags.CREATE)
    while True:
        chunk = yield from reader.read(CHUNK)
        if not chunk:
            break
        cycles = env.pe.core.cycles_for("fft", len(chunk))
        yield env.sim.delay(cycles, tag="fft")
        yield from out.write(chunk)  # the transformed data, same size
    yield from out.close()
    return ()


def m3_fft_chain(env, binary: str = FFT_SW_BINARY):
    """The parent; returns (wall, ledger).  ``binary`` selects the
    software or accelerator executable."""
    start = env.sim.now
    snapshot = env.sim.ledger.snapshot()
    pe_type = "fft-accel" if binary == FFT_ACCEL_BINARY else None
    pipe = yield from Pipe.create(env)
    child = yield from VPE.create(env, "fft", pe_type=pe_type)
    child_args = yield from pipe.delegate_reader(child)
    yield from child.exec(binary, *child_args)
    writer = yield from pipe.writer().open()
    produced = 0
    while produced < params.FFT_DATA_BYTES:
        size = min(CHUNK, params.FFT_DATA_BYTES - produced)
        yield env.compute(_gen_cycles(size))
        data = deterministic_bytes(f"rand{produced}", size)
        yield from writer.write(data)
        produced += size
    yield from writer.close()
    yield from child.wait()
    return env.sim.now - start, env.sim.ledger.since(snapshot)


def m3_fft_setup(system) -> None:
    """Register the FFT programs and install their binaries in m3fs."""
    system.register_program("fft", m3_fft_program)
    system.register_program("fft-accel", m3_fft_program)
    system.fs_preload(
        {
            FFT_SW_BINARY: deterministic_bytes("fft-binary", BINARY_BYTES),
            FFT_ACCEL_BINARY: deterministic_bytes("fft-accel-binary",
                                                  BINARY_BYTES),
        }
    )


# -- Linux ---------------------------------------------------------------------


def _lx_fft_child(lx, read_fd, write_fd):
    from repro.linuxsim.machine import O_CREAT, O_WRONLY

    # Drop the inherited write end, or EOF never arrives on the pipe.
    yield from lx.close(write_fd)
    yield from lx.execve(FFT_SW_BINARY)
    out_fd = yield from lx.open(OUTPUT_PATH, O_WRONLY | O_CREAT)
    while True:
        chunk = yield from lx.read(read_fd, CHUNK)
        if not chunk:
            break
        cycles = math.ceil(params.FFT_SW_CYCLES_PER_BYTE * len(chunk))
        yield lx.sim.delay(cycles, tag="fft")
        yield from lx.write(out_fd, chunk)
    yield from lx.close(out_fd)
    yield from lx.close(read_fd)
    return ()


def linux_fft_chain(lx):
    """The Linux configuration; returns (wall, ledger)."""
    start = lx.sim.now
    snapshot = lx.sim.ledger.snapshot()
    read_fd, write_fd = yield from lx.pipe()
    child = yield from lx.fork(_lx_fft_child, read_fd, write_fd, name="fft")
    produced = 0
    while produced < params.FFT_DATA_BYTES:
        size = min(CHUNK, params.FFT_DATA_BYTES - produced)
        yield lx.compute(_gen_cycles(size))
        data = deterministic_bytes(f"rand{produced}", size)
        yield from lx.write(write_fd, data)
        produced += size
    yield from lx.close(write_fd)
    yield from lx.waitpid(child)
    return lx.sim.now - start, lx.sim.ledger.since(snapshot)


def linux_fft_setup(machine) -> None:
    """Install the FFT binary in the baseline's tmpfs."""
    binary = deterministic_bytes("fft-binary", BINARY_BYTES)
    machine.preload({FFT_SW_BINARY: binary})
