"""Figure 6: scalability with a single kernel and a single m3fs.

"we ran the application-level benchmarks again, with varying number of
benchmark instances in parallel ... we replaced the reading/writing
from/to the DRAM with a spinning loop of the same time" (Section 5.7).
Reported: average time per instance, normalised to the 1-instance run
(flatter is better).  Expected shape: near-flat to 4 instances,
significant degradation for find and untar at 16, cat+tr nearly flat
throughout.
"""

from __future__ import annotations

from repro.eval.common import normalised, series_rows, swept
from repro.eval.fig5_apps import BENCHMARKS
from repro.eval.report import render_table
from repro.m3.lib.m3fs_client import M3fsClient
from repro.m3.services.m3fs.superblock import SuperBlock
from repro.m3.system import M3System
from repro.workloads.cat_tr import INPUT_PATH, input_bytes, m3_cat_tr
from repro.workloads.trace import M3Replayer
from repro.workloads.tracegen import TRACE_BENCHMARKS

INSTANCE_COUNTS = (1, 4, 16)
#: one simulation per point; the 16-instance points dominate the wall
#: clock, so they come first and no worker runs one alone at the end.
POINTS = tuple((benchmark, count)
               for count in reversed(INSTANCE_COUNTS)
               for benchmark in BENCHMARKS)


def _replay_app(trace, service, go, warm_stat):
    def app(env):
        env.spin_io = True
        client = yield from M3fsClient.connect(env, service=service)
        env.vfs.mount("/", client)
        if warm_stat:
            yield from env.vfs.stat("/")
        yield go
        start = env.sim.now
        yield from M3Replayer(env).replay(trace)
        return env.sim.now - start

    return app


def _cat_tr_app(prefix, go):
    def app(env):
        yield go
        wall, _ledger = yield from m3_cat_tr(env, spin=True, prefix=prefix)
        return wall

    return app


def average_instance_time(system: M3System, benchmark: str, instances: int,
                          services=("m3fs",), warm_stat=True) -> float:
    """Average cycles per instance with ``instances`` running in parallel.

    Instance ``i`` works under ``/i<i>`` on ``services[i % len(services)]``
    (and in that kernel domain, when the system has as many); a barrier
    releases all of them at once, after each has opened its session and
    — with ``warm_stat`` — issued a first request over it.
    """
    go = system.sim.event("go")
    vpes = []
    for index in range(instances):
        slot = index % len(services)
        server = system.fs_servers[services[slot]]
        prefix = f"/i{index}"
        if benchmark == "cat+tr":
            system.fs_preload({prefix + INPUT_PATH: input_bytes()},
                              server=server)
            app = _cat_tr_app(prefix, go)
        else:
            setup_files, trace = TRACE_BENCHMARKS[benchmark](prefix)
            if setup_files:
                system.fs_preload(setup_files, server=server)
            elif not server.fs.exists(prefix):
                # benchmarks with no inputs still need their namespace
                server.fs.mkdir(prefix)
            app = _replay_app(trace, services[slot], go, warm_stat)
        vpes.append(system.spawn(app, name=f"{benchmark}-{index}",
                                 domain=slot % len(system.kernels)))
    system.sim.run()  # everyone reaches the barrier (or queues behind it)
    go.succeed()
    walls = [system.wait(vpe) for vpe in vpes]
    return sum(walls) / len(walls)


def run_point(point: tuple) -> float:
    benchmark, instances = point
    # 16 tar instances keep ~40 MiB of file data live; give the single
    # m3fs instance a 128 MiB volume (the DRAM is sized to match).
    system = M3System(pe_count=40, dram_bytes=192 * 1024 * 1024).boot(
        fs_kwargs={"superblock": SuperBlock(total_blocks=128 * 1024)}
    )
    return average_instance_time(system, benchmark, instances)


def fold(averages: dict) -> dict:
    """benchmark -> [(instances, avg cycles, normalised)], flat-is-good."""
    return normalised(averages, BENCHMARKS, INSTANCE_COUNTS)


def render(results: dict) -> str:
    """The ``results/fig6_scale.txt`` table for :func:`fold`'s results."""
    return render_table(
        "Figure 6: avg time per instance, normalised (flatter is better)",
        ["benchmark", "instances", "avg cycles", "normalised"],
        series_rows(results),
    )


EVAL = swept("fig6_scale", POINTS, run_point, fold, render)
