"""Figure 3: system calls and file operations.

Left: a null system call on M3 (~200 cycles: ~30 transfer + ~170
software) vs Linux (410 cycles on Xtensa).  Right: reading/writing a
2 MiB file with 4 KiB buffers and piping 2 MiB between two
processes/VPEs, for M3 / Lx-$ (no cache misses) / Lx, each broken into
"Xfers" and "Other".
"""

from __future__ import annotations

from repro import params
from repro.eval.common import single
from repro.eval.report import render_table
from repro.linuxsim.machine import LinuxMachine
from repro.m3.system import M3System
from repro.workloads.data import deterministic_bytes
from repro.workloads.micro import (
    lx_pipe,
    lx_read,
    lx_syscalls,
    lx_write,
    m3_drain,
    m3_pipe,
    m3_read,
    m3_syscalls,
    m3_write,
)

FILE_BYTES = params.MICRO_FILE_BYTES
BUFFER = params.MICRO_BUFFER_BYTES
SYSCALL_ITERATIONS = 16

#: the unfragmented 2 MiB file: one extent covering everything.
UNFRAGMENTED_BLOCKS = FILE_BYTES // params.M3FS_BLOCK_BYTES


def _measured(body):
    """The app (or Linux program) that runs ``body(env)`` once for
    warmup, then measured; it returns (cycles, ledger delta)."""

    def program(env):
        yield from body(env)
        start = env.sim.now
        snapshot = env.sim.ledger.snapshot()
        yield from body(env)
        return env.sim.now - start, env.sim.ledger.since(snapshot)

    return program


def _per_syscall(wall: int, delta: dict) -> tuple[int, dict]:
    scaled = {tag: cycles // SYSCALL_ITERATIONS for tag, cycles in delta.items()}
    return wall // SYSCALL_ITERATIONS, scaled


# -- M3 side ------------------------------------------------------------------


def m3_syscall_cycles() -> tuple[int, dict]:
    """Average cycles of a null syscall on M3 (warm)."""
    system = M3System(pe_count=4).boot(with_fs=False)
    return _per_syscall(*system.run_app(
        _measured(lambda env: m3_syscalls(env, SYSCALL_ITERATIONS)),
        name="syscall-bench"))


def m3_read_cycles() -> tuple[int, dict]:
    system = M3System(pe_count=4).boot()
    system.fs_preload(
        {"/bench.dat": deterministic_bytes("bench", FILE_BYTES)},
        extent_blocks=UNFRAGMENTED_BLOCKS,
    )
    return system.run_app(
        _measured(lambda env: m3_read(env, "/bench.dat", BUFFER)),
        name="read-bench")


def m3_write_cycles() -> tuple[int, dict]:
    system = M3System(pe_count=4).boot()
    payload = deterministic_bytes("write", BUFFER)
    paths = iter(("/out0.dat", "/out1.dat"))  # warmup, measured
    return system.run_app(
        _measured(lambda env: m3_write(env, next(paths), payload, FILE_BYTES)),
        name="write-bench")


def m3_pipe_cycles() -> tuple[int, dict]:
    """2 MiB through a pipe, serialised (ring of one slot) so no two PEs
    do useful work in parallel — the paper's fairness rule (Section 5.1).
    """
    system = M3System(pe_count=4).boot(with_fs=False)
    payload = deterministic_bytes("pipe", BUFFER)

    def body(env):
        reader, vpe = yield from m3_pipe(env, payload, FILE_BYTES)
        yield from m3_drain(reader, BUFFER)
        yield from vpe.wait()

    return system.run_app(_measured(body), name="pipe-bench")


# -- Linux side -----------------------------------------------------------------


def lx_syscall_cycles(warm_cache: bool) -> tuple[int, dict]:
    machine = LinuxMachine(warm_cache=warm_cache)
    return _per_syscall(*machine.run_program(
        _measured(lambda lx: lx_syscalls(lx, SYSCALL_ITERATIONS))))


def lx_read_cycles(warm_cache: bool) -> tuple[int, dict]:
    machine = LinuxMachine(warm_cache=warm_cache)
    machine.preload({"/bench.dat": deterministic_bytes("bench", FILE_BYTES)})
    return machine.run_program(
        _measured(lambda lx: lx_read(lx, "/bench.dat", BUFFER)))


def lx_write_cycles(warm_cache: bool) -> tuple[int, dict]:
    machine = LinuxMachine(warm_cache=warm_cache)
    payload = deterministic_bytes("write", BUFFER)
    paths = iter(("/out0.dat", "/out1.dat"))  # warmup, measured
    return machine.run_program(
        _measured(lambda lx: lx_write(lx, next(paths), payload, FILE_BYTES)))


def lx_pipe_cycles(warm_cache: bool) -> tuple[int, dict]:
    machine = LinuxMachine(warm_cache=warm_cache)
    payload = deterministic_bytes("pipe", BUFFER)
    return machine.run_program(
        _measured(lambda lx: lx_pipe(lx, payload, FILE_BYTES)))


# -- assembly -------------------------------------------------------------------


def run() -> dict:
    """All Figure 3 numbers: op -> system -> (total, xfers, other)."""

    def pack(wall: int, ledger: dict) -> dict:
        xfers = ledger.get("xfer", 0)
        return {"total": wall, "xfers": xfers, "other": wall - xfers}

    # op -> (M3 measurement, Linux measurement given ``warm_cache``)
    ops = {
        "syscall": (m3_syscall_cycles, lx_syscall_cycles),
        "read": (m3_read_cycles, lx_read_cycles),
        "write": (m3_write_cycles, lx_write_cycles),
        "pipe": (m3_pipe_cycles, lx_pipe_cycles),
    }
    return {
        op: {"M3": pack(*m3()), "Lx-$": pack(*lx(True)),
             "Lx": pack(*lx(False))}
        for op, (m3, lx) in ops.items()
    }


def render(results: dict) -> str:
    """The ``results/fig3_micro.txt`` table for :func:`run`'s results."""
    rows = []
    for op, systems in results.items():
        for name in ("M3", "Lx-$", "Lx"):
            entry = systems[name]
            rows.append((op, name, entry["total"], entry["xfers"],
                         entry["other"]))
    return render_table(
        "Figure 3: system calls and file operations (cycles)",
        ["op", "system", "total", "xfers", "other"],
        rows,
    )


EVAL = single("fig3_micro", run, render)
