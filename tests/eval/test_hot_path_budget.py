"""A noise-free guard on the per-packet hot path.

Host seconds cannot be asserted in tier-1 — they depend on the machine
and on what else it is doing.  The number of Python-level calls one
serving point makes does not: the simulation is deterministic, so the
count below repeats exactly from run to run on CPython 3.11.  It is the
handle ``docs/performance.md`` ("Per-request budget") reads the hot
path by: a change that adds a call per packet or per event moves it by
thousands.
"""

import cProfile
import gc
import pathlib
import pstats

import repro
from repro.workloads.traffic import TrafficProfile, run_profile

#: Calls into functions defined under ``src/repro/`` during one
#: 60-request ``run_profile`` point (boot, serve, drain) — builtins and
#: the standard library are not counted.  Recorded when the per-packet
#: fast path landed (the commit before it made 337,592).  Later changes
#: lower it; raising it is a decision to write down in CHANGES.md, not
#: a number to bump until the test passes.
PYTHON_CALL_BUDGET = 212_781

_PACKAGE = str(pathlib.Path(repro.__file__).resolve().parent)


def _point() -> None:
    run_profile(TrafficProfile(name="budget", seed=7, requests=60))


def _calls_into_repro() -> int:
    profiler = cProfile.Profile()
    # Suspended generators a collection happens to finalise inside the
    # profiled region count as calls: collect what earlier tests left
    # behind first, and keep the cycle collector out of the count.
    gc.collect()
    gc.disable()
    try:
        profiler.runcall(_point)
    finally:
        gc.enable()
    return sum(
        calls
        for (filename, _line, _name), (_prim, calls, *_rest)
        in pstats.Stats(profiler).stats.items()
        if filename.startswith(_PACKAGE)
    )


def test_one_serving_point_stays_within_its_call_budget():
    calls = _calls_into_repro()
    assert calls <= PYTHON_CALL_BUDGET, (
        f"one 60-request serving point made {calls:,} calls into repro/, "
        f"over the budget of {PYTHON_CALL_BUDGET:,}: something on the "
        "per-packet or per-event path got more expensive"
    )
