"""Figure 6 rerun with a partitioned mesh: multi-kernel scale-out.

Section 7 names "multiple kernel instances" as the way to scale M3
beyond what one kernel PE and one m3fs instance can serve: "the
M3 kernel can be distributed as well by instantiating it on multiple
PEs", with each kernel managing a fraction of the PEs.  This figure
reruns the worst Figure-6 data point — 16 parallel instances, where
``find`` and ``untar`` degrade hard against a single kernel/filesystem
— with the mesh partitioned into 1, 2, and 4 kernel domains, each
domain running its own m3fs instance.  The per-instance average should
shrink as domains are added, because both the kernel's syscall channel
and the filesystem service stop being a single shared bottleneck.
"""

from __future__ import annotations

from repro.eval.common import fs_name, normalised, series_rows, swept
from repro.eval.fig6_scale import average_instance_time
from repro.eval.report import render_table
from repro.m3.services.m3fs.superblock import SuperBlock
from repro.m3.system import M3System

#: the two benchmarks whose 16-instance runs degrade most in Figure 6.
BENCHMARKS = ["find", "untar"]
KERNEL_COUNTS = (1, 2, 4)
INSTANCES = 16
#: every point runs 16 instances; fewer domains = one kernel serving
#: more of them = slower, so k=1 goes first.
POINTS = tuple((benchmark, kernel_count)
               for kernel_count in KERNEL_COUNTS
               for benchmark in BENCHMARKS)

PE_COUNT = 40
DRAM_BYTES = 192 * 1024 * 1024
#: aggregate filesystem volume, split evenly across the domains.
TOTAL_FS_BLOCKS = 64 * 1024


def run_point(point: tuple) -> float:
    """Average cycles per instance: 16 instances spread round-robin
    over ``kernel_count`` kernel domains, each with its own m3fs."""
    benchmark, kernel_count = point
    system = M3System(
        pe_count=PE_COUNT, kernel_count=kernel_count, dram_bytes=DRAM_BYTES,
    ).boot(with_fs=False)
    services = [fs_name(domain) for domain in range(kernel_count)]
    for domain, service in enumerate(services):
        system.start_m3fs(
            name=service, domain=domain,
            superblock=SuperBlock(
                total_blocks=TOTAL_FS_BLOCKS // kernel_count
            ),
        )
    return average_instance_time(system, benchmark, INSTANCES, services)


def fold(averages: dict) -> dict:
    """benchmark -> [(kernel domains, avg cycles, vs 1 domain)]."""
    return normalised(averages, BENCHMARKS, KERNEL_COUNTS)


def run() -> dict:
    return fold({point: run_point(point) for point in POINTS})


def render(results: dict) -> str:
    """The ``results/fig6_multikernel.txt`` table."""
    return render_table(
        "Figure 6 rerun: 16 instances across kernel domains "
        "(smaller is better)",
        ["benchmark", "kernel domains", "avg cycles", "vs 1 domain"],
        series_rows(results),
    )


EVAL = swept("fig6_multikernel", POINTS, run_point,
             lambda averages: render(fold(averages)))
