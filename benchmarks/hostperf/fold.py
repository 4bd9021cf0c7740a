"""Pure helpers: the module-to-layer fold, the tail rule, run statistics."""

from __future__ import annotations

import fractions
import heapq
import math
import pstats
import statistics

#: the strata a host second can be charged to, in report order.
LAYERS = (
    "sim", "noc", "dtu", "hw", "m3.kernel", "m3.lib", "m3.system", "m3fs",
    "kvserv", "netserv", "obs", "faults", "workloads", "python",
)

#: path below ``repro/`` -> layer; first match wins, so the specific
#: service modules come before the ``m3/`` catch-all (``system.py``,
#: ``autoscale.py``).
_LAYER_PREFIXES = (
    ("m3/services/m3fs/", "m3fs"),
    ("m3/services/kvserv.py", "kvserv"),
    ("m3/services/netserv.py", "netserv"),
    ("m3/kernel/", "m3.kernel"),
    ("m3/lib/", "m3.lib"),
    ("m3/", "m3.system"),
    ("sim/", "sim"),
    ("noc/", "noc"),
    ("dtu/", "dtu"),
    ("hw/", "hw"),
    ("obs/", "obs"),
    ("faults/", "faults"),
    ("workloads/", "workloads"),
)

#: ``sim`` functions that put callbacks on the event queue, by file;
#: their call counts add up to "events scheduled".  Beside the three
#: entry points, ``delay`` pushes its own entry and ``Event._dispatch``
#: inlines ``call_soon`` for the waiters it wakes.
_SCHEDULING_FUNCTIONS = {
    "engine.py": ("schedule", "schedule_at", "call_soon", "delay"),
    "events.py": ("_dispatch",),
}


def layer_of(filename: str) -> str:
    """The layer a profiled function's source file belongs to.

    Everything outside the ``repro`` package — the interpreter's
    builtins (cProfile files them under ``~``), the standard library,
    this benchmark's own files — is ``python``.
    """
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker < 0:
        return "python"
    below = path[marker + len("/repro/"):]
    for prefix, layer in _LAYER_PREFIXES:
        if below.startswith(prefix):
            return layer
    return "python"


def fold_profile(profiler) -> dict:
    """Fold a finished ``cProfile.Profile`` by layer.

    Returns ``{"layers": {layer: {"self_s", "self_share", "calls"}},
    "total_s", "calls", "events_scheduled", "top": [...]}``; shares sum
    to one by construction (self times partition the profiled time).
    """
    stats = pstats.Stats(profiler).stats
    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    events = 0
    functions = []
    for (filename, line, name), (_prim, calls, self_s, _cum, _callers) \
            in stats.items():
        layer = layer_of(filename)
        layers[layer]["self_s"] += self_s
        layers[layer]["calls"] += calls
        if layer == "sim" and name in _SCHEDULING_FUNCTIONS.get(
                filename.rsplit("/", 1)[-1], ()):
            events += calls
        functions.append((self_s, calls, layer, f"{filename}:{line}", name))
    total = sum(entry["self_s"] for entry in layers.values())
    for entry in layers.values():
        entry["self_share"] = entry["self_s"] / total if total else 0.0
    return {
        "layers": layers,
        "total_s": total,
        "calls": sum(entry["calls"] for entry in layers.values()),
        "events_scheduled": events,
        "top": [
            {"self_s": self_s, "calls": calls, "layer": layer,
             "where": where, "function": name}
            for self_s, calls, layer, where, name
            in heapq.nlargest(40, functions)
        ],
    }


# -- percentiles ---------------------------------------------------------------

#: candidate tail percentiles, lowest first.
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9, 99.99)
#: a percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    """Nearest rank of percentile ``p`` among ``n`` samples, in exact
    arithmetic: as floats, 99.9 % of 10 000 rounds up to 9 991."""
    return max(1, math.ceil(fractions.Fraction(str(p)) * n / 100))


def percentile(ordered: list, p: float):
    """Nearest-rank percentile of an ascending list."""
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(p, len(ordered)) - 1]


def tail(values) -> tuple:
    """``(p, value, n)``: the highest ladder percentile that still has
    :data:`TAIL_MIN_BEYOND` samples beyond it.  With too few samples
    for any rung the median is all that can be said, and ``p`` is 50.
    """
    ordered = sorted(values)
    n = len(ordered)
    chosen = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= TAIL_MIN_BEYOND:
            chosen = p
    return chosen, percentile(ordered, chosen), n


def spread(values) -> dict:
    """Median, quartiles, min and count of one metric's repeats."""
    values = list(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "min": min(values), "n": len(values),
    }
