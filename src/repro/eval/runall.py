"""Run every evaluation figure/table across a ``multiprocessing`` pool.

Each figure, ablation sweep, and Figure-6 (benchmark, instance-count)
point is an independent simulation: no shared state, no ordering
requirement between them.  This module fans those points out over a
process pool and merges the results deterministically:

- The job list is a fixed, ordered sequence (``build_jobs``).
- ``pool.map`` returns results in *input* order regardless of which
  worker finished first, so the merged output is identical for any
  worker count — including the serial in-process fallback.
- Workers return rendered *file contents* (strings); only the parent
  touches the filesystem.  A crashed worker therefore cannot leave a
  half-written results file behind.

The rendered tables are byte-identical to what the benchmark suite
(``benchmarks/``) writes, because both go through the shared
``bench_table``/``*_table`` renderers in the eval modules.

Usage::

    PYTHONPATH=src python -m repro.eval.runall [--jobs N] [--select NAME]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import pathlib
import sys

from repro.eval import (
    ablations,
    autoscale,
    critical_path,
    domain_failover,
    fault_tolerance,
    fig3_micro,
    fig4_extents,
    fig5_apps,
    fig6_multikernel,
    fig6_scale,
    fig7_accel,
    profile,
    tab_arm,
    telemetry,
    traffic,
)
from repro.obs import to_chrome_trace

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[3] / "results"

#: Figure-6 geometry matching the committed ``results/fig6_scale.txt``
#: (the benchmark suite's instance counts, not ``fig6_scale.main()``'s
#: full sweep — runall reproduces the repo's results files).
FIG6_BENCHMARKS = tuple(fig6_scale.BENCHMARKS)
FIG6_INSTANCE_COUNTS = (1, 4, 16)


# -- workers (module-level so they pickle under fork/spawn) -------------------


def _fig3() -> dict:
    return {"fig3_micro.txt": fig3_micro.bench_table(fig3_micro.run()) + "\n"}


def _fig4() -> dict:
    return {"fig4_extents.txt":
            fig4_extents.bench_table(fig4_extents.run()) + "\n"}


def _fig5() -> dict:
    return {"fig5_apps.txt": fig5_apps.bench_table(fig5_apps.run()) + "\n"}


def _fig7() -> dict:
    return {"fig7_accel.txt": fig7_accel.bench_table(fig7_accel.run()) + "\n"}


def _tab_arm() -> dict:
    return {"tab_arm.txt": tab_arm.bench_table(tab_arm.run()) + "\n"}


def _fault_tolerance() -> dict:
    return {"fault_tolerance.txt":
            fault_tolerance.render(fault_tolerance.run()) + "\n"}


def _domain_failover() -> dict:
    return {"domain_failover.txt":
            domain_failover.bench_table(domain_failover.run()) + "\n"}


def _critical_path() -> dict:
    return {"critical_path.txt":
            critical_path.bench_table(critical_path.run()) + "\n"}


def _traffic() -> dict:
    return {"traffic.txt":
            traffic.bench_table(traffic.run()) + "\n"}


def _autoscale() -> dict:
    return {"autoscale.txt":
            autoscale.bench_table(autoscale.run()) + "\n"}


def _telemetry() -> dict:
    return {"telemetry.txt":
            telemetry.bench_table(telemetry.run()) + "\n"}


def _profile() -> dict:
    system = profile.run()
    trace = to_chrome_trace(system.sim.obs)
    return {
        "profile.txt": profile.render(system) + "\n",
        # Exactly what export_chrome_trace writes: compact separators,
        # no trailing newline.
        "fig3_micro.trace.json":
            json.dumps(trace, indent=None, separators=(",", ":")),
    }


_FIGURES = {
    "fig3_micro": _fig3,
    "fig4_extents": _fig4,
    "fig5_apps": _fig5,
    "fig7_accel": _fig7,
    "tab_arm": _tab_arm,
    "fault_tolerance": _fault_tolerance,
    "domain_failover": _domain_failover,
    "profile": _profile,
    "critical_path": _critical_path,
    "traffic": _traffic,
    "autoscale": _autoscale,
    "telemetry": _telemetry,
}


def _execute(job: tuple):
    """Run one job spec in a (possibly forked) worker process."""
    kind = job[0]
    if kind == "figure":
        return _FIGURES[job[1]]()
    if kind == "ablation":
        sweep, table = ablations.BENCH_SWEEPS[job[1]]
        return {f"{job[1]}.txt": table(sweep()) + "\n"}
    if kind == "fig6-point":
        _, benchmark, count = job
        return fig6_scale.average_instance_time(benchmark, count)
    if kind == "fig6mk-point":
        _, benchmark, kernel_count = job
        return fig6_multikernel.average_instance_time(benchmark, kernel_count)
    raise ValueError(f"unknown job kind: {job!r}")


# -- job list and deterministic merge -----------------------------------------


def build_jobs(select: list[str] | None = None) -> list[tuple]:
    """The fixed job sequence; heaviest points first for load balance.

    ``select`` filters by output name (``fig6_scale``, ``tab_arm``,
    ``abl_cache``, ...); ``None`` means everything.
    """

    def wanted(name: str) -> bool:
        return select is None or name in select

    jobs: list[tuple] = []
    # Figure 6's 16-instance points dominate the wall clock — front-load
    # them so a worker is not left running one alone at the end.
    if wanted("fig6_scale"):
        for count in sorted(FIG6_INSTANCE_COUNTS, reverse=True):
            for benchmark in FIG6_BENCHMARKS:
                jobs.append(("fig6-point", benchmark, count))
    # Every multi-kernel point runs 16 instances; fewer domains = one
    # kernel serving more of them = slower, so k=1 goes first.
    if wanted("fig6_multikernel"):
        for kernel_count in sorted(fig6_multikernel.KERNEL_COUNTS):
            for benchmark in fig6_multikernel.BENCHMARKS:
                jobs.append(("fig6mk-point", benchmark, kernel_count))
    # The traffic eval runs eight load points serially — heavy enough
    # to start early alongside the fig6 points.
    for name in ("traffic", "telemetry", "autoscale", "fig5_apps",
                 "fault_tolerance", "domain_failover"):
        if wanted(name):
            jobs.append(("figure", name))
    for name in sorted(ablations.BENCH_SWEEPS):
        if wanted(name):
            jobs.append(("ablation", name))
    for name in ("fig3_micro", "fig4_extents", "fig7_accel", "tab_arm",
                 "profile", "critical_path"):
        if wanted(name):
            jobs.append(("figure", name))
    return jobs


def merge_fig6(averages: dict) -> dict:
    """Assemble ``fig6_scale.run()``-shaped results from point averages.

    ``averages`` maps (benchmark, count) -> average cycles.  The merge
    iterates benchmarks and counts in canonical order, so the result —
    including the normalisation baseline (the smallest count) — does
    not depend on the order the points finished in.
    """
    results: dict = {}
    for benchmark in FIG6_BENCHMARKS:
        series = []
        baseline = None
        for count in sorted(FIG6_INSTANCE_COUNTS):
            average = averages[(benchmark, count)]
            if baseline is None:
                baseline = average
            series.append((count, average, average / baseline))
        results[benchmark] = series
    return results


def _collect(jobs: list[tuple], outcomes: list) -> dict:
    """Fold per-job outcomes (in job order) into {filename: content}."""
    files: dict[str, str] = {}
    fig6_points: dict[tuple, float] = {}
    fig6mk_points: dict[tuple, float] = {}
    for job, outcome in zip(jobs, outcomes):
        if job[0] == "fig6-point":
            fig6_points[(job[1], job[2])] = outcome
        elif job[0] == "fig6mk-point":
            fig6mk_points[(job[1], job[2])] = outcome
        else:
            files.update(outcome)
    if fig6_points:
        table = fig6_scale.bench_table(merge_fig6(fig6_points))
        files["fig6_scale.txt"] = table + "\n"
    if fig6mk_points:
        table = fig6_multikernel.bench_table(
            fig6_multikernel.merge_points(fig6mk_points)
        )
        files["fig6_multikernel.txt"] = table + "\n"
    return files


def run_all(jobs: int | None = None, select: list[str] | None = None,
            results_dir=None) -> dict:
    """Run the evaluation suite; write results files; return contents.

    ``jobs`` is the pool size (``None`` = one per CPU, 1 = serial
    in-process).  Output is identical for every value.
    """
    specs = build_jobs(select)
    if jobs is None:
        jobs = multiprocessing.cpu_count()
    workers = max(1, min(jobs, len(specs)))
    if workers == 1:
        outcomes = [_execute(spec) for spec in specs]
    else:
        # fork shares the already-imported modules with the children;
        # chunksize=1 keeps the slow fig6 points spread across workers.
        context = multiprocessing.get_context("fork")
        with context.Pool(processes=workers) as pool:
            outcomes = pool.map(_execute, specs, chunksize=1)
    files = _collect(specs, outcomes)
    directory = pathlib.Path(results_dir) if results_dir else RESULTS_DIR
    directory.mkdir(exist_ok=True)
    for filename in sorted(files):
        (directory / filename).write_text(files[filename])
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.runall",
        description="Run all evaluation figures/tables in parallel.",
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=None,
        help="pool size (default: one worker per CPU; 1 = serial)",
    )
    parser.add_argument(
        "--select", action="append", metavar="NAME",
        help="only produce this output (repeatable); e.g. fig6_scale",
    )
    parser.add_argument(
        "--results-dir", default=None,
        help=f"output directory (default: {RESULTS_DIR})",
    )
    options = parser.parse_args(argv)
    files = run_all(jobs=options.jobs, select=options.select,
                    results_dir=options.results_dir)
    for filename in sorted(files):
        print(filename)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
