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

from repro.eval.report import render_table
from repro.m3.system import M3System
from repro.workloads.trace import M3Replayer
from repro.workloads.tracegen import TRACE_BENCHMARKS

#: the two benchmarks whose 16-instance runs degrade most in Figure 6.
BENCHMARKS = ["find", "untar"]
KERNEL_COUNTS = [1, 2, 4]
INSTANCES = 16

PE_COUNT = 40
DRAM_BYTES = 192 * 1024 * 1024
#: aggregate filesystem volume, split evenly across the domains.
TOTAL_FS_BLOCKS = 64 * 1024


def _fs_name(domain: int) -> str:
    return "m3fs" if domain == 0 else f"m3fs{domain}"


def _spin_replay_app(trace, service, go):
    def app(env):
        from repro.m3.lib.m3fs_client import M3fsClient

        env.spin_io = True
        client = yield from M3fsClient.connect(env, service=service)
        env.vfs.mount("/", client)
        yield from env.vfs.stat("/")  # session setup before the barrier
        yield go
        start = env.sim.now
        yield from M3Replayer(env).replay(trace)
        return env.sim.now - start

    return app


def average_instance_time(benchmark: str, kernel_count: int) -> float:
    """Average cycles per instance: 16 instances spread round-robin
    over ``kernel_count`` kernel domains, each with its own m3fs."""
    from repro.m3.services.m3fs.superblock import SuperBlock

    system = M3System(
        pe_count=PE_COUNT, kernel_count=kernel_count, dram_bytes=DRAM_BYTES,
    ).boot(with_fs=False)
    for domain in range(kernel_count):
        system.start_m3fs(
            name=_fs_name(domain), domain=domain,
            superblock=SuperBlock(
                total_blocks=TOTAL_FS_BLOCKS // kernel_count
            ),
        )
    go = system.sim.event("go")
    vpes = []
    for index in range(INSTANCES):
        domain = index % kernel_count
        server = system.fs_servers[_fs_name(domain)]
        prefix = f"/i{index}"
        setup_files, trace = TRACE_BENCHMARKS[benchmark](prefix)
        if setup_files:
            system.fs_preload(setup_files, server=server)
        elif not server.fs.exists(prefix):
            server.fs.mkdir(prefix)
        app = _spin_replay_app(trace, _fs_name(domain), go)
        vpes.append(
            system.spawn(app, name=f"{benchmark}-{index}", domain=domain)
        )
    system.sim.run()  # everyone reaches the barrier (or queues behind it)
    go.succeed()
    walls = [system.wait(vpe) for vpe in vpes]
    return sum(walls) / len(walls)


def run(benchmarks=None, kernel_counts=None) -> dict:
    """benchmark -> [(kernel domains, avg cycles, vs 1 domain)]."""
    results: dict = {}
    for benchmark in benchmarks or BENCHMARKS:
        series = []
        baseline = None
        for count in kernel_counts or KERNEL_COUNTS:
            average = average_instance_time(benchmark, count)
            if baseline is None:
                baseline = average
            series.append((count, average, average / baseline))
        results[benchmark] = series
    return results


def merge_points(averages: dict) -> dict:
    """Assemble :func:`run`-shaped results from separately computed
    ``(benchmark, kernel_count) -> average`` points (the parallel
    runner computes points in any order)."""
    results: dict = {}
    for benchmark in BENCHMARKS:
        series = []
        baseline = None
        for count in KERNEL_COUNTS:
            average = averages[(benchmark, count)]
            if baseline is None:
                baseline = average
            series.append((count, average, average / baseline))
        results[benchmark] = series
    return results


def bench_table(results: dict) -> str:
    """The ``results/fig6_multikernel.txt`` table."""
    rows = []
    for benchmark, series in results.items():
        for count, average, norm in series:
            rows.append((benchmark, count, int(average), f"{norm:.2f}"))
    return render_table(
        "Figure 6 rerun: 16 instances across kernel domains "
        "(smaller is better)",
        ["benchmark", "kernel domains", "avg cycles", "vs 1 domain"],
        rows,
    )


def main() -> str:
    table = bench_table(run())
    print(table)
    return table


if __name__ == "__main__":  # pragma: no cover
    main()
