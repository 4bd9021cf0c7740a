"""Chrome trace-event JSON export.

Maps the Observer's spans and instants onto the trace-event format that
Perfetto and ``chrome://tracing`` load: every PE (node) becomes a
"process" (``pid``), every category becomes a "thread" (``tid``) inside
it, spans become complete events (``ph: "X"`` with ``ts``/``dur``), and
instants become instant events (``ph: "i"``).  Timestamps are simulated
cycles, exported one cycle per microsecond (the viewer's native unit);
``metadata.clock`` records that.

Processes and threads are labelled with ``process_name`` /
``thread_name`` metadata events: the process name comes from the
Observer's node labels (kernel domain, app, service, NIC roles set by
``M3System``) with ``PE <n>`` as the fallback, and each category row is
named after itself so Perfetto shows roles instead of bare ids.

Causally-linked spans that cross a PE boundary additionally emit
**flow events** (``ph: "s"``/``"f"``): Perfetto draws an arrow from the
parent span (e.g. the DTU message span at the sender) to each child
recorded on another node (the receiver's handler span), making the
request's path across the chip visible in the UI.

The export is plain ``json.dump``-able data — no wall-clock, fully
deterministic, round-trips through ``json.loads``.
"""

from __future__ import annotations

import json
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observer import Observer

#: pid used for events with no node attribution.
GLOBAL_PID = -1


def _flow_events(observer: "Observer") -> list[dict]:
    """Arrow pairs for causal parent->child links that cross nodes.

    Each cross-node edge becomes one ``"s"`` (start, at the parent) and
    one ``"f"`` (finish with ``bp: "e"``, binding to the enclosing
    slice, at the child).  The flow id is the child's span id — unique,
    since a span has exactly one incoming causal edge.  Timestamps are
    clamped into both slices so the viewer anchors the arrow correctly.
    """
    spans = [s for s in observer.spans if s.span_id >= 0]
    by_id = {s.span_id: s for s in spans}
    flows: list[dict] = []
    for span in spans:
        parent = by_id.get(span.parent_id)
        if parent is None or parent.node == span.node:
            continue
        common = {"cat": "causal", "name": "request", "id": span.span_id}
        flows.append({
            **common, "ph": "s",
            "ts": min(max(parent.begin, span.begin), parent.end),
            "pid": parent.node if parent.node >= 0 else GLOBAL_PID,
            "tid": parent.category,
        })
        flows.append({
            **common, "ph": "f", "bp": "e", "ts": span.begin,
            "pid": span.node if span.node >= 0 else GLOBAL_PID,
            "tid": span.category,
        })
    return flows


def trace_events(observer: "Observer") -> list[dict]:
    """The Observer's spans/instants as trace-event dicts."""
    events: list[dict] = []
    seen_pids: dict[int, set] = {}
    for span in observer.spans:
        pid = span.node if span.node >= 0 else GLOBAL_PID
        event = {
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": span.begin,
            "dur": span.end - span.begin,
            "pid": pid,
            "tid": span.category,
        }
        args = dict(span.args) if span.args else {}
        if span.trace_id >= 0:
            args["trace"] = span.trace_id
            args["span"] = span.span_id
            if span.parent_id >= 0:
                args["parent"] = span.parent_id
        if args:
            event["args"] = args
        events.append(event)
        seen_pids.setdefault(pid, set()).add(span.category)
    for instant in observer.instants:
        pid = instant.node if instant.node >= 0 else GLOBAL_PID
        event = {
            "name": instant.name,
            "cat": instant.category,
            "ph": "i",
            "ts": instant.time,
            "pid": pid,
            "tid": instant.category,
            "s": "p",  # process-scoped instant
        }
        if instant.args:
            event["args"] = dict(instant.args)
        events.append(event)
        seen_pids.setdefault(pid, set()).add(instant.category)
    for flow in _flow_events(observer):
        events.append(flow)
        seen_pids.setdefault(flow["pid"], set()).add(flow["tid"])
    events.sort(key=lambda e: (e["ts"], e["pid"], str(e["tid"]),
                               e["ph"], e["name"], e.get("id", -1)))
    metadata = []
    for pid in sorted(seen_pids):
        if pid == GLOBAL_PID:
            label = "simulator"
        else:
            label = observer.node_labels.get(pid, f"PE {pid}")
        metadata.append({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "args": {"name": label},
        })
        for tid in sorted(seen_pids[pid]):
            metadata.append({
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": tid},
            })
    return metadata + events


def to_chrome_trace(observer: "Observer") -> dict:
    """The full JSON-object form of the trace."""
    return {
        "traceEvents": trace_events(observer),
        "displayTimeUnit": "ms",
        "metadata": {
            "clock": "simulated-cycles",
            "spans_dropped": observer.spans_dropped,
            "instants_dropped": observer.instants_dropped,
        },
    }


def export_chrome_trace(observer: "Observer", path) -> dict:
    """Write the trace to ``path``; returns the exported object."""
    trace = to_chrome_trace(observer)
    with open(path, "w") as handle:
        json.dump(trace, handle, indent=None, separators=(",", ":"))
    return trace
