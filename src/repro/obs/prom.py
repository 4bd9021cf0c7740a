"""Prometheus-style text exposition of the Observer's metrics.

Renders the counters and histograms one Observer collected in
the standard ``text/plain; version=0.0.4`` shape — ``# TYPE`` comments,
cumulative ``_bucket{le="..."}`` rows, ``_sum``/``_count`` — so the
simulated metrics can be diffed against, or loaded like, a real
scrape.  Output is fully deterministic: metric names are sanitized the
same way every time and everything is emitted in sorted order.

The exposition is a *point-in-time* scrape of the cumulative metrics;
the per-epoch history lives in :mod:`repro.obs.timeseries`.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observer import Observer


def metric_name(name: str) -> str:
    """Sanitize an Observer metric name for the exposition format
    (``kv.kv0.requests`` -> ``kv_kv0_requests``)."""
    out = []
    for index, char in enumerate(name):
        if char.isalnum() or char in "_:":
            out.append(char)
        else:
            out.append("_")
    if out and out[0].isdigit():
        out.insert(0, "_")
    return "".join(out) or "_"


def render_prometheus(observer: "Observer") -> str:
    """The full exposition for one Observer, ending in a newline."""
    lines: list[str] = []
    for name in sorted(observer.counters):
        safe = metric_name(name)
        lines.append(f"# TYPE {safe} counter")
        lines.append(f"{safe} {observer.counters[name]}")
    for name in sorted(observer.histograms):
        hist = observer.histograms[name]
        safe = metric_name(name)
        lines.append(f"# TYPE {safe} histogram")
        cumulative = 0
        for index, bucket_count in enumerate(hist.counts):
            if not bucket_count:
                continue
            cumulative += bucket_count
            _low, high = hist.bucket_bounds(index)
            lines.append(
                f'{safe}_bucket{{le="{high}"}} {cumulative}'
            )
        lines.append(f'{safe}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{safe}_sum {hist.total}")
        lines.append(f"{safe}_count {hist.count}")
    return "\n".join(lines) + "\n"
