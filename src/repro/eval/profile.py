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
import typing

from repro import params
from repro.eval.common import Eval
from repro.eval.report import render_table
from repro.obs import to_chrome_trace

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.m3.system import M3System
    from repro.noc.network import Network
    from repro.obs import Histogram, Observer

#: the profile microbenchmark's workload geometry (a scaled-down
#: Figure 3: enough traffic for meaningful histograms, fast to run).
PROFILE_SYSCALLS = 16
PROFILE_FILE_BYTES = 256 * 1024
PROFILE_BUFFER_BYTES = params.MICRO_BUFFER_BYTES


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


def link_series_table(observer: "Observer", top: int = 3) -> str:
    """Occupancy time series (epoch boundaries) for the busiest links."""
    busiest = sorted(
        observer.link_series.items(),
        key=lambda kv: (-sum(f for _t, f in kv[1]), kv[0]),
    )[:top]
    rows = []
    for (a, b), series in busiest:
        for epoch_end, fraction in series:
            rows.append((f"{a}->{b}", epoch_end, f"{fraction:.2%}"))
    return render_table(
        f"Link occupancy per {observer.epoch:,}-cycle epoch (busiest {top})",
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
    if obs.link_series:
        pieces.append(link_series_table(obs))
    return "\n\n".join(pieces)


# -- the profiled microbenchmark ----------------------------------------------


def run() -> "M3System":
    """A Figure-3-style micro run with observability enabled.

    Performs null syscalls and a buffered file read so the report has
    syscall-latency, message-RTT, and m3fs-request histograms plus NoC
    link traffic; returns the finished system for inspection.
    """
    from repro.m3.kernel import syscalls
    from repro.m3.lib.file import OpenFlags
    from repro.m3.system import M3System
    from repro.workloads.data import deterministic_bytes

    system = M3System(pe_count=4, observe=True).boot()
    system.fs_preload(
        {"/profile.dat": deterministic_bytes("profile", PROFILE_FILE_BYTES)}
    )

    def app(env):
        for _ in range(PROFILE_SYSCALLS):
            yield from env.syscall(syscalls.NOOP)
        file = yield from env.vfs.open("/profile.dat", OpenFlags.R)
        while True:
            chunk = yield from file.read(PROFILE_BUFFER_BYTES)
            if not chunk:
                break
        yield from file.close()
        return ()

    system.run_app(app, name="profile")
    # Flush the trailing partial epoch so the occupancy series covers
    # the whole run.
    system.sim.obs.sample_links(system.platform.network, force=True)
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
EVAL = Eval("profile", (None,), lambda _point: files(run()),
            lambda outcomes: outcomes[None], (REPORT_FILE, TRACE_FILE))
