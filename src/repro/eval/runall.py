"""The eval registry, and the one writer of ``results/``.

Every committed result is an :class:`~repro.eval.common.Eval` listed
once in :data:`EVALS`.  Its points are independent simulations: no
shared state, no ordering requirement between them.  This module fans
all points of all evals out over a process pool and merges the
outcomes deterministically:

- The job list is ``(eval name, point)`` for every eval in registry
  order (``build_jobs``).
- ``pool.map`` returns outcomes in *input* order regardless of which
  worker finished first, so the rendered output is identical for any
  worker count — including the serial in-process fallback.
- Workers return picklable outcomes; rendering and writing happen in
  the parent.  A crashed worker therefore cannot leave a half-written
  results file behind.

Usage::

    PYTHONPATH=src python -m repro.eval.runall [--jobs N] [--select NAME]
    PYTHONPATH=src python -m repro.eval NAME [NAME...]   # print, not write
"""

from __future__ import annotations

import argparse
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
from repro.eval.common import Eval

RESULTS_DIR = pathlib.Path(__file__).resolve().parents[3] / "results"

#: every eval, heaviest first (the serving runs take a second or two
#: per point, everything else well under one) so no worker is left
#: running a long point alone at the end.
EVALS: tuple[Eval, ...] = (
    traffic.EVAL,
    telemetry.EVAL,
    autoscale.FAULT_EVAL,
    autoscale.EVAL,
    traffic.FAULT_EVAL,
    fig6_scale.EVAL,
    fig6_multikernel.EVAL,
    fig4_extents.EVAL,
    fig3_micro.EVAL,
    fig5_apps.EVAL,
    *ablations.EVALS,
    fault_tolerance.EVAL,
    tab_arm.EVAL,
    fig7_accel.EVAL,
    domain_failover.EVAL,
    profile.EVAL,
    critical_path.EVAL,
    telemetry.FLIGHT_EVAL,
)
BY_NAME = {entry.name: entry for entry in EVALS}


def select_evals(names: list[str] | None = None) -> list[Eval]:
    """The named evals (``None`` = all of them), in registry order."""
    if names is None:
        return list(EVALS)
    unknown = sorted(set(names) - set(BY_NAME))
    if unknown or not names:
        problem = (f"unknown eval {', '.join(unknown)}" if unknown
                   else "no eval named")
        raise ValueError(
            f"{problem}; the registry has: {', '.join(BY_NAME)}"
        )
    return [entry for entry in EVALS if entry.name in names]


def build_jobs(select: list[str] | None = None) -> list[tuple]:
    """The fixed job sequence: one ``(eval name, point)`` per simulation."""
    return [(entry.name, point)
            for entry in select_evals(select) for point in entry.points]


def _execute(job: tuple):
    """Run one job in a (possibly forked) worker process."""
    name, point = job
    return BY_NAME[name].run_point(point)


def _collect(jobs: list[tuple], outcomes: list) -> dict:
    """Fold per-job outcomes (in job order) into {filename: content}."""
    by_eval: dict[str, dict] = {}
    for (name, point), outcome in zip(jobs, outcomes):
        by_eval.setdefault(name, {})[point] = outcome
    files: dict[str, str] = {}
    for name, points in by_eval.items():
        files.update(BY_NAME[name].render(points))
    return files


def run_all(jobs: int | None = None, select: list[str] | None = None,
            results_dir=None) -> dict:
    """Run the evaluation suite; write results files; return contents.

    ``jobs`` is the pool size (``None`` = one per CPU, 1 = serial
    in-process).  Output is identical for every value.
    """
    specs = build_jobs(select)
    directory = pathlib.Path(results_dir) if results_dir else RESULTS_DIR
    directory.mkdir(parents=True, exist_ok=True)
    if jobs is None:
        jobs = multiprocessing.cpu_count()
    workers = max(1, min(jobs, len(specs)))
    if workers == 1:
        outcomes = [_execute(spec) for spec in specs]
    else:
        # fork shares the already-imported modules with the children;
        # chunksize=1 keeps the slow points spread across workers.
        context = multiprocessing.get_context("fork")
        with context.Pool(processes=workers) as pool:
            outcomes = pool.map(_execute, specs, chunksize=1)
    files = _collect(specs, outcomes)
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
        help="only produce this eval (repeatable); e.g. fig6_scale",
    )
    parser.add_argument(
        "--results-dir", default=None,
        help=f"output directory (default: {RESULTS_DIR})",
    )
    options = parser.parse_args(argv)
    try:
        select_evals(options.select)
    except ValueError as error:
        parser.error(str(error))  # exits 2 before anything runs
    files = run_all(jobs=options.jobs, select=options.select,
                    results_dir=options.results_dir)
    for filename in sorted(files):
        print(filename)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
