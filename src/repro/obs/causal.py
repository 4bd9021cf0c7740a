"""Causal request tracing: context propagation and critical paths.

The Observer's flat spans answer *what* happened on each PE; this
module answers *why an operation took as long as it did*.  It follows
the Dapper model:

- A **trace context** is ``(trace id, span id)``.  The first span
  opened on a node with no active context starts a new trace (the
  request root — e.g. a client syscall in libm3); spans opened while a
  context is active become children of it.
- The context crosses PEs inside the padding of the 16-byte DTU
  :class:`~repro.dtu.message.MessageHeader` (like the reliable-delivery
  sequence number — no wire-size change): the sending DTU stamps the
  trace id and the id of the message's own span, and the receiver's
  handler *adopts* that pair, so every span recorded while handling the
  message becomes a child of the in-flight message span.  This works
  across kernel domains (the inter-kernel protocol rides ordinary DTU
  messages), through replies, and for RDMA/config transactions via the
  matching :class:`~repro.noc.packet.Packet` stamp.

On top of the resulting span forest this module provides **per-request
assembly** (:func:`assemble_requests`) and **critical-path extraction**
(:func:`critical_path`): the root interval is partitioned into
segments, each attributed to the *deepest* causally-linked span
covering it, and span categories map onto the paper's components
(libm3 / DTU transfer / NoC / kernel / service / inter-kernel RPC).

Zero-overhead contract unchanged: nothing here runs unless an Observer
is installed (``sim.obs is None`` costs one branch per site), and all
analysis is a pure function of recorded spans — fully deterministic.
"""

from __future__ import annotations

import itertools
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observer import Observer, Span


class TraceContext(typing.NamedTuple):
    """One position in a trace: ``(trace_id, span_id)``."""

    trace_id: int
    span_id: int

    @property
    def valid(self) -> bool:
        return self.trace_id >= 0


#: "no context": spans recorded under it stay outside every trace.
NO_CONTEXT = TraceContext(-1, -1)


def header_context(header) -> TraceContext:
    """The trace context a DTU :class:`MessageHeader` carries.

    ``header.parent_span`` is the span id of the in-flight message
    itself, so receiver-side spans adopting this context become
    children of the message span — the causal edge across the NoC.
    """
    return TraceContext(header.trace_id, header.parent_span)


class CausalTracker:
    """Per-node stacks of active trace contexts.

    The simulator is single-threaded and cooperative, so "what request
    is this code working for" is well-defined per NoC node: the top of
    that node's context stack.  :meth:`repro.obs.observer.Observer.begin`
    pushes, :meth:`~repro.obs.observer.Observer.end` pops (by span id,
    so interleaved processes on one node cannot unbalance the stack).
    """

    def __init__(self):
        self._trace_ids = itertools.count(1)
        self._stacks: dict[int, list[TraceContext]] = {}

    def current(self, node: int) -> TraceContext:
        """The active context on ``node`` (``NO_CONTEXT`` if idle)."""
        stack = self._stacks.get(node)
        return stack[-1] if stack else NO_CONTEXT

    def open(self, node: int, span_id: int,
             parent: TraceContext | None = None) -> tuple[int, int]:
        """Activate a new span on ``node``; returns (trace_id, parent_id).

        ``parent=None`` nests under the node's current context (or
        starts a new trace when there is none); an explicit ``parent``
        adopts a propagated context — an *invalid* one (``trace_id <
        0``, e.g. from an unstamped message) starts a new trace, so
        every handler span still lands in some request tree.
        """
        if parent is None:
            parent = self.current(node)
        if parent.valid:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = next(self._trace_ids), -1
        self._stacks.setdefault(node, []).append(
            TraceContext(trace_id, span_id)
        )
        return trace_id, parent_id

    def close(self, node: int, span_id: int) -> None:
        """Deactivate ``span_id`` on ``node`` (tolerates out-of-order
        closes from interleaved processes)."""
        stack = self._stacks.get(node)
        if not stack:
            return
        for index in range(len(stack) - 1, -1, -1):
            if stack[index].span_id == span_id:
                del stack[index]
                return


# -- request assembly ---------------------------------------------------------


class Request(typing.NamedTuple):
    """All spans of one traced request, stitched into a tree."""

    trace_id: int
    root: "Span"
    spans: tuple

    @property
    def total_cycles(self) -> int:
        return self.root.end - self.root.begin


def assemble_requests(observer: "Observer") -> list[Request]:
    """Group the observer's spans by trace and pick each trace's root.

    Returns requests in trace-id order (deterministic).  The root is
    the span recorded with no parent; if it is missing (ring-capacity
    drop, a span that never ended), the earliest span stands in.
    """
    groups: dict[int, list] = {}
    for span in observer.spans:
        if span.trace_id >= 0:
            groups.setdefault(span.trace_id, []).append(span)
    requests = []
    for trace_id in sorted(groups):
        spans = sorted(groups[trace_id], key=lambda s: (s.begin, s.span_id))
        roots = [s for s in spans if s.parent_id < 0]
        root = roots[0] if roots else spans[0]
        requests.append(Request(trace_id, root, tuple(spans)))
    return requests


def find_request(observer: "Observer", name: str,
                 category: str = "syscall-client") -> Request:
    """The *last* assembled request whose root matches (warm run)."""
    matches = [
        request for request in assemble_requests(observer)
        if request.root.name == name and request.root.category == category
    ]
    if not matches:
        raise ValueError(f"no traced request with root {name!r}/{category!r}")
    return matches[-1]


# -- critical-path extraction -------------------------------------------------

#: span category -> report component (the paper's cycle attribution).
COMPONENT_BY_CATEGORY = {
    "syscall-client": "libm3",
    "m3fs-client": "libm3",
    "syscall": "kernel",
    "ctxsw": "kernel",
    "watchdog": "kernel",
    "dtu": "dtu-transfer",
    "noc": "noc-transfer",
    "noc-queue": "noc-contention",
    "m3fs": "service",
    "kv": "service",
    "traffic": "app",
    "ik": "inter-kernel",
}


def component_of(category: str) -> str:
    return COMPONENT_BY_CATEGORY.get(category, "other")


class Segment(typing.NamedTuple):
    """One critical-path interval, attributed to a span/component."""

    start: int
    end: int
    span: "Span"
    component: str

    @property
    def cycles(self) -> int:
        return self.end - self.start


def critical_path(request: Request) -> list[Segment]:
    """Partition the request's end-to-end interval into attributed
    segments.

    Every cycle in ``[root.begin, root.end)`` is charged to the
    *deepest* span of the request tree covering it (ties: later begin,
    then higher span id) — the innermost work the request was waiting
    on at that moment.  The result is an exact, gap-free partition:
    segment cycles sum to the measured end-to-end latency, so component
    attribution always covers 100% of it.
    """
    root = request.root
    lo, hi = root.begin, root.end
    if hi <= lo:
        return []
    spans = [s for s in request.spans if s.end > s.begin
             and s.end > lo and s.begin < hi]
    by_id = {s.span_id: s for s in request.spans}
    depth_memo: dict[int, int] = {}

    def depth(span) -> int:
        cached = depth_memo.get(span.span_id)
        if cached is None:
            parent = by_id.get(span.parent_id)
            # Parent ids are always allocated before their children
            # begin, so this recursion cannot cycle.
            cached = 0 if parent is None else depth(parent) + 1
            depth_memo[span.span_id] = cached
        return cached

    bounds = sorted(
        {lo, hi}
        | {t for s in spans for t in (s.begin, s.end) if lo < t < hi}
    )
    pieces: list[tuple[int, int, object]] = []
    for start, end in zip(bounds, bounds[1:]):
        cover = root
        best = (-1, 0, 0)
        for span in spans:
            if span.begin <= start and span.end >= end:
                rank = (depth(span), span.begin, span.span_id)
                if rank > best:
                    best, cover = rank, span
        if pieces and pieces[-1][2] is cover:
            pieces[-1] = (pieces[-1][0], end, cover)
        else:
            pieces.append((start, end, cover))
    return [
        Segment(start, end, span, component_of(span.category))
        for start, end, span in pieces
    ]


def component_breakdown(segments: list[Segment]) -> dict[str, int]:
    """component -> cycles, summed over a critical path."""
    totals: dict[str, int] = {}
    for segment in segments:
        totals[segment.component] = (
            totals.get(segment.component, 0) + segment.cycles
        )
    return totals
