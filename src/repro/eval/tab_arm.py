"""Section 5.2: Linux on Xtensa vs Linux on ARM Cortex-A15.

"a Linux system call requires 320 cycles on ARM and 410 cycles on
Xtensa, creating a 2 MiB large file has 2.4 million cycles overhead on
ARM and 2.2 million cycles on Xtensa, and copying a 2 MiB file has 3.2
million cycles overhead on both architectures."

"Overhead" = total time minus the ideal (DTU-speed, 8 B/cycle)
transfer time of the bytes moved.
"""

from __future__ import annotations

from repro import params
from repro.eval.common import single
from repro.eval.report import render_table
from repro.linuxsim.machine import LinuxMachine, O_CREAT, O_RDONLY, O_WRONLY
from repro.workloads.data import deterministic_bytes
from repro.workloads.micro import lx_syscalls, lx_write

FILE_BYTES = params.MICRO_FILE_BYTES
BUFFER = params.MICRO_BUFFER_BYTES

#: ideal transfer cost of n bytes at DTU speed.
def _ideal(nbytes: int) -> int:
    return nbytes // params.DTU_BYTES_PER_CYCLE


def syscall_cycles(costs: params.LinuxCosts) -> int:
    machine = LinuxMachine(costs=costs)

    def program(lx):
        start = lx.sim.now
        yield from lx_syscalls(lx, 1)
        return lx.sim.now - start

    return machine.run_program(program)


def create_overhead(costs: params.LinuxCosts) -> int:
    """Creating (writing) a 2 MiB file, minus the ideal transfer time."""
    machine = LinuxMachine(costs=costs)
    payload = deterministic_bytes("arm-create", BUFFER)

    def program(lx):
        start = lx.sim.now
        yield from lx_write(lx, "/f", payload, FILE_BYTES)
        return lx.sim.now - start

    total = machine.run_program(program)
    return total - _ideal(FILE_BYTES)


def copy_overhead(costs: params.LinuxCosts) -> int:
    """Copying a 2 MiB file, minus the ideal transfer time (2x: in+out)."""
    machine = LinuxMachine(costs=costs)
    machine.preload({"/src": deterministic_bytes("arm-copy", FILE_BYTES)})

    def program(lx):
        start = lx.sim.now
        src = yield from lx.open("/src", O_RDONLY)
        dst = yield from lx.open("/dst", O_WRONLY | O_CREAT)
        while True:
            chunk = yield from lx.read(src, BUFFER)
            if not chunk:
                break
            yield from lx.write(dst, chunk)
        yield from lx.close(src)
        yield from lx.close(dst)
        return lx.sim.now - start

    total = machine.run_program(program)
    return total - 2 * _ideal(FILE_BYTES)


def run() -> list[tuple]:
    """(metric, Xtensa, ARM) rows mirroring Section 5.2."""
    rows = []
    rows.append(
        (
            "null syscall (cycles)",
            syscall_cycles(params.LINUX_XTENSA),
            syscall_cycles(params.LINUX_ARM),
        )
    )
    rows.append(
        (
            "create 2 MiB file, overhead (cycles)",
            create_overhead(params.LINUX_XTENSA),
            create_overhead(params.LINUX_ARM),
        )
    )
    rows.append(
        (
            "copy 2 MiB file, overhead (cycles)",
            copy_overhead(params.LINUX_XTENSA),
            copy_overhead(params.LINUX_ARM),
        )
    )
    return rows


def render(rows: list[tuple]) -> str:
    """The ``results/tab_arm.txt`` table for :func:`run`'s rows."""
    return render_table(
        "Section 5.2: Linux on Xtensa vs ARM Cortex-A15",
        ["metric", "Xtensa", "ARM"],
        rows,
    )


EVAL = single("tab_arm", run, render)
