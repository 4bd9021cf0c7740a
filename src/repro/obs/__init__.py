"""Structured observability for the simulator.

The paper's whole evaluation is cycle accounting — stacked App/Xfers/OS
breakdowns — and the reliability machinery (retransmits, watchdog
probes, recovery) is invisible without runtime introspection.  One
module per concern, each with its own docstring:

- :mod:`~repro.obs.observer` — the per-simulation hub (``sim.obs``):
  typed spans, instants, counters, histograms; no epochs of its own.
- :mod:`~repro.obs.metrics` — deterministic log2/log-linear histograms.
- :mod:`~repro.obs.causal` — trace contexts carried in DTU headers,
  per-request span trees, critical paths attributed per component.
- :mod:`~repro.obs.timeseries` — epoch-bucketed telemetry series
  (``observer.enable_telemetry(epoch)``), per-link NoC occupancy among
  them; :mod:`~repro.obs.slo` — burn-rate SLO alerts over them,
  feeding the autoscaler and failover verdicts.
- :mod:`~repro.obs.flight` — a per-domain flight recorder that reads
  the recent log on failure verdicts and writes it as text
  (``observer.enable_flight_recorder()``).
- :mod:`~repro.obs.chrome`, :mod:`~repro.obs.prom` — Chrome/Perfetto
  trace-event JSON and Prometheus text exposition.

Zero-overhead contract: nothing is collected unless an Observer is
installed (``sim.obs``); with it off every instrumentation point pays
one attribute load plus one ``is None`` branch, so all calibrated
figures stay bit-identical.  See ``docs/observability.md``.
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
from repro.obs.flight import FlightRecorder
from repro.obs.prom import render_prometheus

__all__ = [
    "FlightRecorder", "Histogram", "Instant", "NO_CONTEXT", "Observer",
    "Request", "Segment", "SloMonitor", "SloSpec", "Span", "Telemetry",
    "TraceContext", "assemble_requests", "component_breakdown",
    "critical_path", "find_request", "header_context", "last_alert_before",
    "render_prometheus", "trace_events", "to_chrome_trace",
    "export_chrome_trace",
]
