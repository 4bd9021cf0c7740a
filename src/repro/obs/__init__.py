"""Structured observability for the simulator.

The paper's whole evaluation is cycle accounting — stacked App/Xfers/OS
breakdowns — and PR 1's reliability machinery (retransmits, watchdog
probes, recovery) is invisible without runtime introspection.  This
package is the first-class observability layer:

- :class:`~repro.obs.observer.Observer` — the per-simulation hub that
  collects typed **spans** (begin/end, category, node, metadata),
  **instant events**, and cheap **metrics** (counters, gauges, log2
  histograms, per-link occupancy epochs).
- :mod:`repro.obs.chrome` — exports the collected spans/instants as a
  Chrome trace-event JSON file that loads in Perfetto /
  ``chrome://tracing`` (PEs map to "processes", categories to
  "threads").
- :mod:`repro.obs.metrics` — deterministic fixed-bucket histograms
  (powers of two, never wall-clock).
- :mod:`repro.obs.causal` — Dapper-style causal request tracing: trace
  contexts propagated in DTU message headers link spans across PEs and
  kernel domains into per-request trees, from which
  :func:`~repro.obs.causal.critical_path` extracts the chain of cycle
  intervals that determined end-to-end latency, attributed per
  component (libm3 / DTU / NoC / kernel / service / inter-kernel RPC).
- :mod:`repro.obs.timeseries` — the streaming telemetry plane:
  epoch-bucketed counter/gauge/quantile series with ring retention
  (``observer.enable_telemetry()``).
- :mod:`repro.obs.slo` — declarative latency/availability SLOs
  evaluated in-sim with multi-window burn-rate alerting; alerts feed
  the autoscaler (``policy="slo"``) and failover verdicts.
- :mod:`repro.obs.flight` — a bounded per-domain flight recorder
  dumped deterministically on failure verdicts
  (``observer.enable_flight_recorder()``).
- :mod:`repro.obs.prom` — Prometheus-style text exposition of the
  collected metrics.

Zero-overhead contract: nothing is collected unless an Observer is
installed on the simulator (``sim.obs``); every instrumentation point
in the NoC, DTU, kernel, and services pays exactly one attribute load
plus one ``is None`` branch when observability is off, so all
calibrated figures stay bit-identical.  See ``docs/observability.md``.
"""

from repro.obs.causal import (
    NO_CONTEXT,
    Request,
    Segment,
    TraceContext,
    assemble_requests,
    component_breakdown,
    critical_path,
    find_request,
    header_context,
)
from repro.obs.metrics import Histogram
from repro.obs.observer import Instant, Observer, Span
from repro.obs.chrome import trace_events, to_chrome_trace, export_chrome_trace
from repro.obs.timeseries import Telemetry
from repro.obs.slo import SloMonitor, SloSpec, last_alert_before
from repro.obs.flight import FlightRecorder, render_dump
from repro.obs.prom import render_prometheus

__all__ = [
    "FlightRecorder",
    "Histogram",
    "Instant",
    "NO_CONTEXT",
    "Observer",
    "Request",
    "Segment",
    "SloMonitor",
    "SloSpec",
    "Span",
    "Telemetry",
    "TraceContext",
    "assemble_requests",
    "component_breakdown",
    "critical_path",
    "find_request",
    "header_context",
    "last_alert_before",
    "render_dump",
    "render_prometheus",
    "trace_events",
    "to_chrome_trace",
    "export_chrome_trace",
]
