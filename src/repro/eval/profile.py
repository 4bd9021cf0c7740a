"""Profiling reports over the observability subsystem.

This module turns an installed :class:`repro.obs.Observer` into the
plain-text reports the repo's other figures use: latency histograms
(log2 buckets), named counters, and exact per-link NoC occupancy.  The
totals a run leaves without an observer are ``M3System.stats()``.

The ``profile`` eval runs a Figure-3-style microbenchmark (null
syscalls plus a buffered file read) with observability enabled and
yields both ``results/profile.txt`` and a Chrome trace-event JSON
(``results/fig3_micro.trace.json``) that loads in Perfetto.
"""

from __future__ import annotations

import json
import math
import typing

from repro import params
from repro.eval.common import Eval
from repro.eval.report import render_table
from repro.obs import to_chrome_trace
from repro.obs.timeseries import LINK_SERIES

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.m3.system import M3System
    from repro.noc.network import Network
    from repro.obs import Histogram, Observer, Telemetry

#: the profile microbenchmark's workload geometry (a scaled-down
#: Figure 3: enough traffic for meaningful histograms, fast to run).
PROFILE_SYSCALLS = 16
PROFILE_FILE_BYTES = 256 * 1024
PROFILE_BUFFER_BYTES = params.MICRO_BUFFER_BYTES
#: telemetry epoch of the link-occupancy table, in cycles.
PROFILE_EPOCH = 10_000
#: links the occupancy table shows, busiest first.
BUSIEST_LINKS = 3


# -- table rendering -----------------------------------------------------------


def histogram_table(hist: "Histogram") -> str:
    """One histogram as a bucket table with a summary title line."""
    title = (
        f"Histogram {hist.name} "
        f"(n={hist.count:,}, mean={hist.mean:,.1f}, "
        f"p50<{hist.percentile(0.5):,}, p99<{hist.percentile(0.99):,}, "
        f"min={hist.min if hist.min is not None else '-'}, "
        f"max={hist.max if hist.max is not None else '-'})"
    )
    return render_table(title, ["cycles", "count", "cum"], hist.rows())


def histogram_summary_table(observer: "Observer") -> str:
    """Top-level summary: one row per histogram."""
    rows = []
    for name in sorted(observer.histograms):
        hist = observer.histograms[name]
        rows.append(
            (name, hist.count, f"{hist.mean:,.1f}",
             hist.percentile(0.5), hist.percentile(0.99),
             hist.max if hist.max is not None else 0)
        )
    return render_table(
        "Latency histograms (cycles)",
        ["histogram", "samples", "mean", "p50<", "p99<", "max"],
        rows,
    )


def counter_table(observer: "Observer") -> str:
    """Named counters, largest first."""
    items = sorted(observer.counters.items(), key=lambda kv: (-kv[1], kv[0]))
    return render_table("Counters", ["counter", "value"], items)


def utilization_table(network: "Network") -> str:
    """Exact (unclamped) per-link utilisation over the whole run."""
    elapsed = network.sim.now
    rows = []
    for (a, b), fraction in sorted(
        network.utilization_report().items(), key=lambda kv: (-kv[1], kv[0])
    ):
        link = network.link(a, b)
        rows.append(
            (f"{a}->{b}", link.packets, link.busy_within(elapsed),
             f"{fraction:.2%}")
        )
    return render_table(
        f"NoC link utilisation over {elapsed:,} cycles (exact)",
        ["link", "packets", "busy cycles", "utilisation"],
        rows,
    )


def link_series_table(telemetry: "Telemetry") -> str:
    """Occupancy time series (epoch ends; a flushed last epoch ends at
    the current cycle) for the busiest links."""
    series = {}
    for name in telemetry.names():
        if name.startswith(LINK_SERIES):
            a, b = name.removeprefix(LINK_SERIES).split("->")
            series[int(a), int(b)] = telemetry.points(name)
    busiest = sorted(
        series.items(),
        key=lambda kv: (-math.fsum(f for _i, f in kv[1]), kv[0]),
    )[:BUSIEST_LINKS]
    now = telemetry.sim.now
    rows = []
    for (a, b), points in busiest:
        for index, fraction in points:
            rows.append((f"{a}->{b}", min(telemetry.end_cycle(index), now),
                         f"{fraction:.2%}"))
    return render_table(
        f"Link occupancy per {telemetry.epoch:,}-cycle epoch "
        f"(busiest {BUSIEST_LINKS})",
        ["link", "epoch end", "busy"],
        rows,
    )


def render(system: "M3System") -> str:
    """The full profile report for an observed run."""
    obs = system.sim.obs
    if obs is None:
        raise RuntimeError(
            "profile.render needs observability; pass observe=True to "
            "M3System or call enable_observability()"
        )
    network = system.platform.network
    pieces = [histogram_summary_table(obs)]
    for name in sorted(obs.histograms):
        pieces.append(histogram_table(obs.histograms[name]))
    pieces.append(counter_table(obs))
    pieces.append(utilization_table(network))
    if obs.telemetry is not None:
        pieces.append(link_series_table(obs.telemetry))
    return "\n\n".join(pieces)


# -- the profiled microbenchmark ----------------------------------------------


def run() -> "M3System":
    """A Figure-3-style micro run with observability enabled.

    Performs null syscalls and a buffered file read so the report has
    syscall-latency, message-RTT, and m3fs-request histograms plus NoC
    link traffic; returns the finished system for inspection.
    """
    from repro.m3.system import M3System
    from repro.workloads.data import deterministic_bytes
    from repro.workloads.micro import m3_read, m3_syscalls

    system = M3System(pe_count=4, observe=True)
    # From cycle 0, as the links' traffic is: boot sends packets too.
    telemetry = system.enable_telemetry(PROFILE_EPOCH)
    system.boot()
    system.fs_preload(
        {"/profile.dat": deterministic_bytes("profile", PROFILE_FILE_BYTES)}
    )

    def app(env):
        yield from m3_syscalls(env, PROFILE_SYSCALLS)
        yield from m3_read(env, "/profile.dat", PROFILE_BUFFER_BYTES)
        return ()

    system.run_app(app, name="profile")
    # Flush the trailing partial epoch so the occupancy series covers
    # the whole run.
    telemetry.flush()
    return system


REPORT_FILE, TRACE_FILE = "profile.txt", "fig3_micro.trace.json"


def files(system: "M3System") -> dict:
    """Both committed files for an observed run; the trace is exactly
    what ``export_chrome_trace`` writes (compact, no trailing newline)."""
    trace = to_chrome_trace(system.sim.obs)
    return {
        REPORT_FILE: render(system) + "\n",
        TRACE_FILE: json.dumps(trace, indent=None, separators=(",", ":")),
    }


#: the system does not pickle, so the worker renders both files itself.
EVAL = Eval("profile", (None,), lambda _point: files(run()), dict,
            lambda results: results[None], (REPORT_FILE, TRACE_FILE))
