"""Figure 5: application-level benchmarks.

cat+tr, tar, untar, find, and sqlite on M3 / Lx-$ / Lx, each broken
into App / Xfers / OS stacks (Section 5.6).  Expected shape: cat+tr
about 2x faster on M3; tar/untar at roughly 20%/16% of Linux's time;
find slightly *slower* on M3; sqlite near parity (compute-dominated).
"""

from __future__ import annotations

from repro.eval.common import single
from repro.eval.report import render_table, stacks
from repro.linuxsim.machine import LinuxMachine
from repro.m3.system import M3System
from repro.workloads.cat_tr import (
    INPUT_PATH,
    input_bytes,
    linux_cat_tr,
    m3_cat_tr,
)
from repro.workloads.trace import LinuxReplayer, M3Replayer
from repro.workloads.tracegen import TRACE_BENCHMARKS

BENCHMARKS = ["cat+tr", "tar", "untar", "find", "sqlite"]


def _measured_replay_m3(trace):
    def app(env):
        # Session establishment ahead of the measured window, mirroring
        # a Linux process that already has its libc/page tables warm.
        yield from env.vfs.stat("/")
        start = env.sim.now
        snapshot = env.sim.ledger.snapshot()
        yield from M3Replayer(env).replay(trace)
        return env.sim.now - start, env.sim.ledger.since(snapshot)

    return app


def _measured_replay_lx(trace):
    def program(lx):
        start = lx.sim.now
        snapshot = lx.sim.ledger.snapshot()
        yield from LinuxReplayer(lx).replay(trace)
        return lx.sim.now - start, lx.sim.ledger.since(snapshot)

    return program


def m3_run(benchmark: str) -> tuple[int, dict]:
    """(wall cycles, ledger delta) for one benchmark on M3."""
    system = M3System(pe_count=6).boot()
    if benchmark == "cat+tr":
        system.fs_preload({INPUT_PATH: input_bytes()})
        return system.run_app(m3_cat_tr, name="cat+tr")
    setup_files, trace = TRACE_BENCHMARKS[benchmark]()
    if setup_files:
        system.fs_preload(setup_files)
    return system.run_app(_measured_replay_m3(trace), name=benchmark)


def lx_run(benchmark: str, warm_cache: bool) -> tuple[int, dict]:
    """(wall cycles, ledger delta) for one benchmark on the baseline."""
    machine = LinuxMachine(warm_cache=warm_cache)
    if benchmark == "cat+tr":
        node = machine.fs.create(INPUT_PATH)
        node.data.extend(input_bytes())
        return machine.run_program(linux_cat_tr, name="cat+tr")
    setup_files, trace = TRACE_BENCHMARKS[benchmark]()
    for path, content in setup_files.items():
        directory = ""
        for part in machine.fs.split(path)[:-1]:
            directory = f"{directory}/{part}"
            if not machine.fs.exists(directory):
                machine.fs.mkdir(directory)
        machine.fs.create(path).data.extend(content)
    return machine.run_program(_measured_replay_lx(trace), name=benchmark)


def run() -> dict:
    """benchmark -> system -> {total, app, xfers, os}."""
    results: dict = {}
    for benchmark in BENCHMARKS:
        entry = {}
        for name, runner in (
            ("M3", lambda: m3_run(benchmark)),
            ("Lx-$", lambda: lx_run(benchmark, warm_cache=True)),
            ("Lx", lambda: lx_run(benchmark, warm_cache=False)),
        ):
            wall, ledger = runner()
            app, xfers, os_cycles = stacks(ledger)
            entry[name] = {
                "total": wall, "app": app, "xfers": xfers, "os": os_cycles,
            }
        results[benchmark] = entry
    return results


def render(results: dict) -> str:
    """The ``results/fig5_apps.txt`` table for :func:`run`'s results."""
    rows = []
    for name, systems in results.items():
        lx_total = systems["Lx"]["total"]
        for system_name in ("M3", "Lx-$", "Lx"):
            entry = systems[system_name]
            rows.append(
                (name, system_name, entry["total"], entry["app"],
                 entry["xfers"], entry["os"],
                 f"{entry['total'] / lx_total:.2f}")
            )
    return render_table(
        "Figure 5: application-level benchmarks (cycles)",
        ["benchmark", "system", "total", "app", "xfers", "os", "vs Lx"],
        rows,
    )


EVAL = single("fig5_apps", run, render)
