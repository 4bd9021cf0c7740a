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
from repro.linuxsim.machine import (
    LinuxMachine,
    O_CREAT,
    O_RDONLY,
    O_TRUNC,
    O_WRONLY,
)
from repro.m3.kernel import syscalls
from repro.m3.lib.file import OpenFlags
from repro.m3.lib.pipe import Pipe, PipeWriter
from repro.m3.lib.vpe import VPE
from repro.m3.system import M3System
from repro.workloads.data import deterministic_bytes

FILE_BYTES = params.MICRO_FILE_BYTES
BUFFER = params.MICRO_BUFFER_BYTES
SYSCALL_ITERATIONS = 16

#: the unfragmented 2 MiB file: one extent covering everything.
UNFRAGMENTED_BLOCKS = FILE_BYTES // params.M3FS_BLOCK_BYTES


def _measure(env_or_lx, body):
    """Generator: run ``body`` once for warmup, then measured."""
    yield from body()
    start = env_or_lx.sim.now
    snapshot = env_or_lx.sim.ledger.snapshot()
    yield from body()
    delta = env_or_lx.sim.ledger.since(snapshot)
    return env_or_lx.sim.now - start, delta


# -- M3 side ------------------------------------------------------------------


def m3_syscall_cycles() -> tuple[int, dict]:
    """Average cycles of a null syscall on M3 (warm)."""
    system = M3System(pe_count=4).boot(with_fs=False)

    def app(env):
        def body():
            for _ in range(SYSCALL_ITERATIONS):
                yield from env.syscall(syscalls.NOOP)

        wall, delta = yield from _measure(env, body)
        return wall, delta

    wall, delta = system.run_app(app, name="syscall-bench")
    scaled = {tag: cycles // SYSCALL_ITERATIONS for tag, cycles in delta.items()}
    return wall // SYSCALL_ITERATIONS, scaled


def m3_read_cycles() -> tuple[int, dict]:
    system = M3System(pe_count=4).boot()
    system.fs_preload(
        {"/bench.dat": deterministic_bytes("bench", FILE_BYTES)},
        extent_blocks=UNFRAGMENTED_BLOCKS,
    )

    def app(env):
        def body():
            file = yield from env.vfs.open("/bench.dat", OpenFlags.R)
            while True:
                chunk = yield from file.read(BUFFER)
                if not chunk:
                    break
            yield from file.close()

        return (yield from _measure(env, body))

    return system.run_app(app, name="read-bench")


def m3_write_cycles() -> tuple[int, dict]:
    system = M3System(pe_count=4).boot()
    payload = deterministic_bytes("write", BUFFER)

    def app(env):
        iteration = [0]

        def body():
            path = f"/out{iteration[0]}.dat"
            iteration[0] += 1
            file = yield from env.vfs.open(
                path, OpenFlags.W | OpenFlags.CREATE
            )
            written = 0
            while written < FILE_BYTES:
                yield from file.write(payload)
                written += BUFFER
            yield from file.close()

        return (yield from _measure(env, body))

    return system.run_app(app, name="write-bench")


def m3_pipe_cycles() -> tuple[int, dict]:
    """2 MiB through a pipe, serialised (ring of one slot) so no two PEs
    do useful work in parallel — the paper's fairness rule (Section 5.1).
    """
    system = M3System(pe_count=4).boot(with_fs=False)
    payload = deterministic_bytes("pipe", BUFFER)

    def child(env, mem_sel, sgate_sel, ring, slots, rounds):
        writer = yield from PipeWriter.attach(env, mem_sel, sgate_sel, ring,
                                              slots)
        for _ in range(rounds):
            yield from writer.write(payload)
        yield from writer.close()
        return ()

    def parent(env):
        def body():
            pipe = yield from Pipe.create(env, ring_bytes=BUFFER, slots=1)
            vpe = yield from VPE.create(env, "writer")
            args = yield from pipe.delegate_writer(vpe)
            yield from vpe.run(child, *args, FILE_BYTES // BUFFER)
            reader = yield from pipe.reader().open()
            while True:
                chunk = yield from reader.read(BUFFER)
                if not chunk:
                    break
            yield from vpe.wait()

        return (yield from _measure(env, body))

    return system.run_app(parent, name="pipe-bench")


# -- Linux side -----------------------------------------------------------------


def lx_syscall_cycles(warm_cache: bool = False,
                      costs=params.LINUX_XTENSA) -> tuple[int, dict]:
    machine = LinuxMachine(costs=costs, warm_cache=warm_cache)

    def program(lx):
        def body():
            for _ in range(SYSCALL_ITERATIONS):
                yield from lx.null_syscall()

        wall, delta = yield from _measure(lx, body)
        return wall, delta

    wall, delta = machine.run_program(program)
    scaled = {tag: cycles // SYSCALL_ITERATIONS for tag, cycles in delta.items()}
    return wall // SYSCALL_ITERATIONS, scaled


def lx_read_cycles(warm_cache: bool) -> tuple[int, dict]:
    machine = LinuxMachine(warm_cache=warm_cache)
    node = machine.fs.create("/bench.dat")
    node.data.extend(deterministic_bytes("bench", FILE_BYTES))

    def program(lx):
        def body():
            fd = yield from lx.open("/bench.dat", O_RDONLY)
            while True:
                chunk = yield from lx.read(fd, BUFFER)
                if not chunk:
                    break
            yield from lx.close(fd)

        return (yield from _measure(lx, body))

    return machine.run_program(program)


def lx_write_cycles(warm_cache: bool) -> tuple[int, dict]:
    machine = LinuxMachine(warm_cache=warm_cache)
    payload = deterministic_bytes("write", BUFFER)

    def program(lx):
        iteration = [0]

        def body():
            path = f"/out{iteration[0]}.dat"
            iteration[0] += 1
            fd = yield from lx.open(path, O_WRONLY | O_CREAT | O_TRUNC)
            written = 0
            while written < FILE_BYTES:
                yield from lx.write(fd, payload)
                written += BUFFER
            yield from lx.close(fd)

        return (yield from _measure(lx, body))

    return machine.run_program(program)


def lx_pipe_cycles(warm_cache: bool) -> tuple[int, dict]:
    machine = LinuxMachine(warm_cache=warm_cache)
    payload = deterministic_bytes("pipe", BUFFER)

    def child(lx, write_fd, rounds):
        for _ in range(rounds):
            yield from lx.write(write_fd, payload)
        yield from lx.close(write_fd)
        return ()

    def program(lx):
        def body():
            read_fd, write_fd = yield from lx.pipe()
            child_env = yield from lx.fork(
                child, write_fd, FILE_BYTES // BUFFER
            )
            yield from lx.close(write_fd)
            while True:
                chunk = yield from lx.read(read_fd, BUFFER)
                if not chunk:
                    break
            yield from lx.close(read_fd)
            yield from lx.waitpid(child_env)

        return (yield from _measure(lx, body))

    return machine.run_program(program)


# -- assembly -------------------------------------------------------------------


def run() -> dict:
    """All Figure 3 numbers: op -> system -> (total, xfers, other)."""
    results: dict = {}

    def pack(wall: int, ledger: dict) -> dict:
        xfers = ledger.get("xfer", 0)
        return {"total": wall, "xfers": xfers, "other": wall - xfers}

    results["syscall"] = {
        "M3": pack(*m3_syscall_cycles()),
        "Lx-$": pack(*lx_syscall_cycles(warm_cache=True)),
        "Lx": pack(*lx_syscall_cycles(warm_cache=False)),
    }
    results["read"] = {
        "M3": pack(*m3_read_cycles()),
        "Lx-$": pack(*lx_read_cycles(True)),
        "Lx": pack(*lx_read_cycles(False)),
    }
    results["write"] = {
        "M3": pack(*m3_write_cycles()),
        "Lx-$": pack(*lx_write_cycles(True)),
        "Lx": pack(*lx_write_cycles(False)),
    }
    results["pipe"] = {
        "M3": pack(*m3_pipe_cycles()),
        "Lx-$": pack(*lx_pipe_cycles(True)),
        "Lx": pack(*lx_pipe_cycles(False)),
    }
    return results


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
