"""Time every eval on the host; write/check BENCH_perf.json.

Two numbers, each from one producer:

- **Engine ring**: hostperf's ``micro.sim_events`` — the mailbox ring
  below on a bare :class:`repro.sim.Simulator`, in ring hops per host
  second — best of :data:`ENGINE_REPEATS` calls.
- **Per-eval wall time**: every entry of ``runall.EVALS`` timed
  individually (all its points, serially, in this process), plus the
  suite total.  ``BENCH_perf.json`` is the only home of these
  seconds.

Simulated cycles live in ``results/``; layer and end-to-end host
numbers in ``benchmarks/hostperf/``.

Usage (from the repo root)::

    PYTHONPATH=src python -m benchmarks.perf.harness --write
    PYTHONPATH=src python -m benchmarks.perf.harness --check

``--write`` refreshes the committed ``BENCH_perf.json`` baseline;
``--check`` exits 1 if the engine ring rate drops, or the total wall
time grows, by more than ``--tolerance`` (default 30%) against the
baseline, and 2 — before measuring anything — if there is no baseline
or it was written by a different schema version.  Per-eval times
are reported in the check output but only the aggregate numbers gate,
because individual small evals are too noisy on shared CI runners.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from benchmarks.hostperf import micro
from repro.eval import runall
from repro.sim import Mailbox, Simulator

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO_ROOT / "BENCH_perf.json"

#: engine workload geometry: RINGS independent mailbox rings of WIDTH
#: processes each, passing a token HOPS times with a 3-cycle delay per
#: hop.  ``micro.sim_events`` runs it; it stays here because that
#: module imports it from here.
ENGINE_RINGS = 8
ENGINE_WIDTH = 4
ENGINE_HOPS = 4_000
#: ``micro.sim_events`` calls per measurement, keeping the fastest: the
#: best-of filters scheduler noise on shared runners (observed swings
#: are ±20% on one sample), which a 30% gate cannot absorb.
ENGINE_REPEATS = 3
SCHEMA_VERSION = 4


# -- engine ring ---------------------------------------------------------------


def _ring(sim: Simulator, ring: int, counters: list) -> None:
    mailboxes = [
        Mailbox(sim, f"ring{ring}.mbox{i}") for i in range(ENGINE_WIDTH)
    ]

    def stage(this: int):
        nxt = mailboxes[(this + 1) % ENGINE_WIDTH]
        while True:
            token = yield mailboxes[this].get()
            counters[0] += 1
            if token == 0:
                return
            yield sim.delay(3)
            nxt.put(token - 1 if this == ENGINE_WIDTH - 1 else token)

    for index in range(ENGINE_WIDTH):
        sim.process(stage(index), name=f"r{ring}s{index}")
    mailboxes[0].put(ENGINE_HOPS)


def engine_workload(sim: Simulator | None = None) -> tuple[int, int]:
    """Run the synthetic workload; (simulated cycles, tokens passed)."""
    if sim is None:
        sim = Simulator()
    counters = [0]
    for ring in range(ENGINE_RINGS):
        _ring(sim, ring, counters)
    sim.run()
    return sim.now, counters[0]


# -- per-eval wall time --------------------------------------------------------


def measure_figures() -> dict:
    """Wall seconds per registry entry: its points run, folded and
    rendered."""
    timings: dict[str, float] = {}
    for entry in runall.EVALS:
        start = time.perf_counter()
        runall.render(runall.evaluate(jobs=1, select=[entry.name]))
        timings[entry.name] = round(time.perf_counter() - start, 3)
    return timings


def measure() -> dict:
    rate = max(micro.sim_events() for _ in range(ENGINE_REPEATS))
    figures = measure_figures()
    return {
        "schema": SCHEMA_VERSION,
        "engine": {"ring_hops_per_s": round(rate, 1)},
        "figures": figures,
        "total_seconds": round(sum(figures.values()), 3),
    }


# -- baseline write/check ------------------------------------------------------


def check(current: dict, baseline: dict, tolerance: float) -> list[str]:
    """Regressions beyond ``tolerance``; empty means the gate passes."""
    failures = []
    old_rate = baseline["engine"]["ring_hops_per_s"]
    new_rate = current["engine"]["ring_hops_per_s"]
    if new_rate < old_rate * (1.0 - tolerance):
        failures.append(
            f"engine ring regressed: {new_rate:,.0f} vs baseline "
            f"{old_rate:,.0f} hops/s (tolerance {tolerance:.0%})"
        )
    old_total = baseline["total_seconds"]
    new_total = current["total_seconds"]
    if new_total > old_total * (1.0 + tolerance):
        failures.append(
            f"eval suite regressed: {new_total:.2f}s vs baseline "
            f"{old_total:.2f}s (tolerance {tolerance:.0%})"
        )
    return failures


def report(current: dict, baseline: dict | None) -> str:
    lines = [
        f"engine ring: {current['engine']['ring_hops_per_s']:,.0f} hops/s "
        f"(best of {ENGINE_REPEATS})",
    ]
    for name, seconds in sorted(current["figures"].items()):
        line = f"  {name:<20s} {seconds:7.3f}s"
        if baseline is not None and name in baseline.get("figures", {}):
            line += f"  (baseline {baseline['figures'][name]:.3f}s)"
        lines.append(line)
    lines.append(f"total eval wall time: {current['total_seconds']:.3f}s")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf.harness",
        description="Time every eval and the engine ring on the host.",
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--write", action="store_true",
        help=f"write the measurement to {BASELINE_PATH.name}",
    )
    mode.add_argument(
        "--check", action="store_true",
        help="compare against the committed baseline; exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed fractional regression for --check (default 0.30)",
    )
    options = parser.parse_args(argv)

    baseline = None
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
    if options.check:
        if baseline is None:
            print(f"no baseline at {BASELINE_PATH}; run with --write first",
                  file=sys.stderr)
            return 2
        if baseline.get("schema") != SCHEMA_VERSION:
            print(f"{BASELINE_PATH.name} is schema {baseline.get('schema')}, "
                  f"this harness writes schema {SCHEMA_VERSION}; "
                  "regenerate it with --write", file=sys.stderr)
            return 2

    current = measure()
    print(report(current, baseline if options.check else None))

    if options.write:
        BASELINE_PATH.write_text(json.dumps(current, indent=2) + "\n")
        print(f"wrote {BASELINE_PATH}")
        return 0
    if options.check:
        failures = check(current, baseline, options.tolerance)
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
