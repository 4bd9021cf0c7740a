"""A noise-free guard on the per-packet and per-request hot paths.

Host seconds cannot be asserted in tier-1 — they depend on the machine
and on what else it is doing.  The number of Python-level calls one
point makes does not: the simulation is deterministic, so the counts
below repeat exactly from run to run on CPython 3.11.  They are the
handle ``docs/performance.md`` ("Per-request budget") reads the hot
path by: a change that adds a call per packet, per event or per
service request moves them by hundreds or thousands.

Host memory gets the same treatment (``docs/performance.md``,
"Memory"): not resident pages, which depend on the allocator, but the
number of link-occupancy windows the NoC still holds when a point ends,
the ``tracemalloc`` peak of the m3fs point and the bytes the observed
serving point's span log holds — bytes requested, which repeat exactly
across processes.
"""

import cProfile
import gc
import pathlib
import pstats
import tracemalloc

import pytest

import repro
from repro.eval import fig5_apps
from repro.obs import SloMonitor, SloSpec
from repro.workloads.traffic import TrafficProfile, run_profile
from tests.noc.test_path_reservation import windows_held

_PACKAGE = str(pathlib.Path(repro.__file__).resolve().parent)


def _serving_point():
    """One 60-request ``run_profile`` point (boot, serve, drain):
    engine, NoC, DTU, netserv and kvserv."""
    return run_profile(TrafficProfile(name="budget", seed=7, requests=60))


def _observed_serving_point():
    """The serving point with everything on: an observer, telemetry and
    one SLO monitor — every ``obs`` branch taken, as in hostperf's
    ``serve_kv_observed``.  What this makes over ``_serving_point`` is
    the cost of observing, in calls."""
    def instrument(system):
        system.enable_telemetry(epoch=50_000)
        SloMonitor(system.sim.obs, SloSpec(
            "delivery", target=0.999, bad_series="noc.packets_dropped",
            total_series="noc.packets_injected"))

    return run_profile(TrafficProfile(name="budget", seed=7, requests=60),
                       observe=True, instrument=instrument)


def _m3fs_point() -> None:
    """Figure 5's M3 ``tar`` trace replay: m3fs's loop, extent
    delegation and DTU memory transfers, which no serving point runs."""
    fig5_apps.m3_run("tar")


#: Calls into functions defined under ``src/repro/`` during one point —
#: builtins and the standard library are not counted.  A point's first
#: number is measured on the parent of the change that adds it (m3fs:
#: 24,494; serving-observed: 374,650, i.e. observing cost 180,406 calls
#: on top of the serving point's 194,244 and costs 38,930 now), so
#: changes only meet or lower it; raising one is a decision to write
#: down in CHANGES.md, not a number to bump until the test passes.
PYTHON_CALL_BUDGETS = [
    pytest.param(_serving_point, 184_840, id="serving"),
    pytest.param(_m3fs_point, 22_374, id="m3fs"),
    pytest.param(_observed_serving_point, 223_770, id="serving-observed"),
]

#: Occupancy windows all 288 links together still hold after the
#: serving point's 5,800 packets, observed or not: each link's newest,
#: whatever the length of the run (every window ever granted would be
#: 27,033; 3,160 while ``Network.send`` swept the links every 1,024
#: packets; 878 observed while an observed link kept the open epoch).  Like
#: the call budgets it repeats exactly and only goes down.
RETAINED_WINDOW_BUDGET = 288

#: ``tracemalloc`` peak of the m3fs point, in bytes: what one Figure 5
#: ``tar`` replay holds at its high-water mark.  Measured 283,748 in a
#: fresh process (twice, and with this test run alone), 274,484 with
#: this file and 273,556 in the full suite: what ran before in the same
#: process lowers it.  The budget is the largest plus under 1 % and only
#: goes down.
M3FS_PEAK_BYTES_BUDGET = 286_000

#: ``tracemalloc`` bytes the observed serving point's span log holds when
#: the point ends — its rows and its kinds, with the table that interns
#: them — per span held (9,249).  Measured 81.2 (751,042 B, 832 kinds;
#: a row is 36 B); 111.1 (1,027,210 B) while a span was three references
#: plus six ``int64``s and its args a mapping of its own or drawn from
#: one table of shared args.  Repeats exactly and only goes down.
OBSERVED_SPAN_BYTES_BUDGET = 81.3


def _calls_into_repro(point) -> int:
    # Lazy imports and memoised inputs belong to whichever test runs a
    # point first: run it once uncounted so the count is the same in
    # any test order.
    point()
    profiler = cProfile.Profile()
    # Suspended generators a collection happens to finalise inside the
    # profiled region count as calls: collect what earlier tests left
    # behind first, and keep the cycle collector out of the count.
    gc.collect()
    gc.disable()
    try:
        profiler.runcall(point)
    finally:
        gc.enable()
    return sum(
        calls
        for (filename, _line, _name), (_prim, calls, *_rest)
        in pstats.Stats(profiler).stats.items()
        if filename.startswith(_PACKAGE)
    )


@pytest.mark.parametrize("point, budget", PYTHON_CALL_BUDGETS)
def test_one_point_stays_within_its_call_budget(point, budget):
    calls = _calls_into_repro(point)
    assert calls <= budget, (
        f"{point.__name__} made {calls:,} calls into repro/, over the "
        f"budget of {budget:,}: something on the per-packet, per-event "
        "or per-request path got more expensive"
    )


def test_serving_point_retains_only_the_tail_of_its_link_history():
    """With or without an observer: observing keeps no link history."""
    for point in (_serving_point, _observed_serving_point):
        network = point().system.platform.network
        retained = sum(windows_held(link) for _key, link in network.iter_links())
        assert network.packets_injected == 5_800
        assert retained <= RETAINED_WINDOW_BUDGET, (
            f"the links of {point.__name__} hold {retained:,} occupancy "
            f"windows after {network.packets_injected:,} packets, over the "
            f"budget of {RETAINED_WINDOW_BUDGET:,}: link history is growing "
            "with the packets simulated again"
        )


def test_m3fs_point_stays_within_its_heap_budget():
    _m3fs_point()  # warm, as for the call budgets
    gc.collect()
    tracemalloc.start()
    try:
        _m3fs_point()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= M3FS_PEAK_BYTES_BUDGET, (
        f"the m3fs point peaked at {peak:,} traced bytes, over the budget "
        f"of {M3FS_PEAK_BYTES_BUDGET:,}: a payload is being copied or "
        "kept where it used to be shared"
    )


def test_observed_serving_point_span_log_stays_within_its_heap_budget():
    _observed_serving_point()  # warm, as for the call budgets
    gc.collect()
    tracemalloc.start()
    try:
        obs = _observed_serving_point().system.sim.obs
        spans = len(obs.spans)
        gc.collect()
        before, _peak = tracemalloc.get_traced_memory()
        obs.spans = obs.kinds = None  # what the span log alone holds
        gc.collect()
        held = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert spans == 9_249
    assert held / spans <= OBSERVED_SPAN_BYTES_BUDGET, (
        f"the span log holds {held:,} traced bytes for {spans:,} spans, "
        f"{held / spans:.1f} a span, over the budget of "
        f"{OBSERVED_SPAN_BYTES_BUDGET}: a span keeps an object again, or "
        "its kind is no longer interned"
    )
