"""Measure simulator wall-clock performance; write/check BENCH_perf.json.

Two measurements:

- **Engine throughput**: a synthetic workload of communicating
  processes (mailbox ping-pong rings plus timer churn) run on a bare
  :class:`repro.sim.Simulator`; reported as simulated cycles per
  wall-clock second and executed callbacks per second.
- **Per-figure wall time**: every entry of ``runall.EVALS`` timed
  individually (all its points, serially, in this process), plus the
  suite total.

Usage (from the repo root)::

    PYTHONPATH=src python -m benchmarks.perf.harness --write
    PYTHONPATH=src python -m benchmarks.perf.harness --check

``--write`` refreshes the committed ``BENCH_perf.json`` baseline;
``--check`` exits 1 if the engine throughput drops, or the total wall
time grows, by more than ``--tolerance`` (default 30%) against the
baseline, and 2 — before measuring anything — if there is no baseline
or it was written by a different schema version.  Per-figure times
are reported in the check output but only the aggregate numbers gate,
because individual small figures are too noisy on shared CI runners.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.eval import autoscale, runall
from repro.sim import Mailbox, Simulator

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
BASELINE_PATH = REPO_ROOT / "BENCH_perf.json"

#: engine workload geometry: RINGS independent mailbox rings of WIDTH
#: processes each, passing a token HOPS times with a 3-cycle delay per
#: hop, plus one timer process per ring churning Signal timeouts.
ENGINE_RINGS = 8
ENGINE_WIDTH = 4
ENGINE_HOPS = 4_000
SCHEMA_VERSION = 3


# -- engine throughput ---------------------------------------------------------


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


#: repeat the engine microbenchmark and keep the fastest run: the
#: best-of filters scheduler noise on shared runners (observed swings
#: are ±20% on one sample), which a 30% gate cannot absorb.
ENGINE_REPEATS = 3


def measure_engine() -> dict:
    best_elapsed, cycles, tokens = None, 0, 0
    for _ in range(ENGINE_REPEATS):
        start = time.perf_counter()
        cycles, tokens = engine_workload()
        elapsed = time.perf_counter() - start
        if best_elapsed is None or elapsed < best_elapsed:
            best_elapsed = elapsed
    return {
        "simulated_cycles": cycles,
        "wall_seconds": round(best_elapsed, 4),
        "sim_cycles_per_second": round(cycles / best_elapsed, 1),
        "token_hops": tokens,
    }


# -- per-figure wall time ------------------------------------------------------


def measure_figures() -> dict:
    """Wall seconds per registry entry: its points run and rendered."""
    timings: dict[str, float] = {}
    for entry in runall.EVALS:
        start = time.perf_counter()
        entry.run()
        timings[entry.name] = round(time.perf_counter() - start, 3)
    return timings


def measure_autoscale_boot() -> dict:
    """The warm-vs-cold replica boot comparison, in *simulated* cycles.

    Deterministic (sampled from the autoscaler's warm-boot study, not
    wall clock): cycles for a checkpoint-seeded clone to serve fully
    stocked, versus a cold boot plus the client-side refill of the
    same keys.  Tracked in the baseline so a regression in the
    checkpoint/migration path shows up as a shrinking delta.
    """
    boot = autoscale.run_point("boot")
    return {
        "keys": boot["keys"],
        "warm_cycles": boot["warm_cycles"],
        "cold_stocked_cycles": boot["cold_stocked_cycles"],
        "warm_vs_cold_delta_cycles": boot["delta_cycles"],
    }


def measure() -> dict:
    engine = measure_engine()
    figures = measure_figures()
    return {
        "schema": SCHEMA_VERSION,
        "engine": engine,
        "figures": figures,
        "autoscale_boot": measure_autoscale_boot(),
        "total_seconds": round(sum(figures.values()), 3),
    }


# -- baseline write/check ------------------------------------------------------


def check(current: dict, baseline: dict, tolerance: float) -> list[str]:
    """Regressions beyond ``tolerance``; empty means the gate passes."""
    failures = []
    old_rate = baseline["engine"]["sim_cycles_per_second"]
    new_rate = current["engine"]["sim_cycles_per_second"]
    if new_rate < old_rate * (1.0 - tolerance):
        failures.append(
            f"engine throughput regressed: {new_rate:,.0f} vs baseline "
            f"{old_rate:,.0f} sim cycles/s (tolerance {tolerance:.0%})"
        )
    old_total = baseline["total_seconds"]
    new_total = current["total_seconds"]
    if new_total > old_total * (1.0 + tolerance):
        failures.append(
            f"figure suite regressed: {new_total:.2f}s vs baseline "
            f"{old_total:.2f}s (tolerance {tolerance:.0%})"
        )
    return failures


def report(current: dict, baseline: dict | None) -> str:
    lines = [
        f"engine: {current['engine']['sim_cycles_per_second']:,.0f} "
        f"sim cycles/s over {current['engine']['simulated_cycles']:,} "
        f"cycles",
    ]
    boot = current.get("autoscale_boot")
    if boot is not None:
        lines.append(
            f"autoscale boot ({boot['keys']} keys): warm "
            f"{boot['warm_cycles']:,} vs cold+refill "
            f"{boot['cold_stocked_cycles']:,} sim cycles "
            f"(warm saves {boot['warm_vs_cold_delta_cycles']:,})"
        )
    for name, seconds in sorted(current["figures"].items()):
        line = f"  {name:<20s} {seconds:7.3f}s"
        if baseline is not None and name in baseline.get("figures", {}):
            line += f"  (baseline {baseline['figures'][name]:.3f}s)"
        lines.append(line)
    lines.append(f"total figure wall time: {current['total_seconds']:.3f}s")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf.harness",
        description="Measure simulator wall-clock performance.",
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
