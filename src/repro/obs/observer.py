"""The Observer: the simulation-wide collection hub.

One Observer is installed per simulator (``sim.obs``); every
instrumented component — NoC, DTU, kernel, services — reads that
attribute and pays one ``is None`` branch when observability is off.

Collected data:

- **spans** — typed intervals ``(name, category, node, begin, end,
  args)``; either opened with :meth:`Observer.begin` / closed with
  :meth:`Observer.end`, or recorded retroactively with
  :meth:`Observer.complete` (natural in a discrete-event model where
  the completion cycle is known at injection time).  Every span also
  carries causal identity — ``(span_id, parent_id, trace_id)`` — wired
  through :mod:`repro.obs.causal`: spans opened while another span is
  active on the same node become its children, and handlers adopt the
  context propagated in DTU message headers, linking spans across PEs
  and kernel domains into per-request trees.
- **instants** — point events (a retransmit, a watchdog probe).
- **counters / gauges / histograms** — cheap named metrics; histograms
  use the deterministic log2 buckets of :mod:`repro.obs.metrics`.
- **link occupancy epochs** — per-link busy fraction sampled on fixed
  epoch boundaries, driven lazily from packet injections so the
  sampler never keeps the event queue alive.  Sampling starts at the
  cycle the Observer is created and only moves forward;
  :attr:`Observer.links_sampled_to` tells the network which link
  history it may forget.

Span/instant storage is optionally bounded (ring semantics with a
dropped-record counter) so long fault sweeps cannot grow without
bound.
"""

from __future__ import annotations

import collections
import itertools
import typing

from repro.obs.causal import CausalTracker, TraceContext
from repro.obs.metrics import Histogram

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network
    from repro.sim.engine import Simulator

#: default link-occupancy sampling period in cycles.
DEFAULT_EPOCH = 10_000


class Span(typing.NamedTuple):
    name: str
    category: str
    node: int
    begin: int
    end: int
    #: read-only: spans with equal args may share one mapping (see
    #: :meth:`Observer.complete`); copy before changing anything.
    args: dict | None
    #: causal identity; -1 = outside any trace (see repro.obs.causal).
    span_id: int = -1
    parent_id: int = -1
    trace_id: int = -1


class Instant(typing.NamedTuple):
    name: str
    category: str
    node: int
    time: int
    args: dict | None


class Observer:
    """Collects spans, instants, and metrics for one simulation."""

    def __init__(self, sim: "Simulator", span_capacity: int | None = None,
                 epoch: int = DEFAULT_EPOCH):
        if span_capacity is not None and span_capacity < 1:
            raise ValueError("span capacity must be positive")
        if epoch < 1:
            raise ValueError("epoch must be positive")
        self.sim = sim
        self.span_capacity = span_capacity
        self._spans: collections.deque = collections.deque(maxlen=span_capacity)
        self._instants: collections.deque = collections.deque(maxlen=span_capacity)
        self.spans_dropped = 0
        self.instants_dropped = 0
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        #: (source, destination) -> [(epoch_end_cycle, busy_fraction)].
        self.link_series: dict[tuple, list[tuple[int, float]]] = {}
        self.epoch = epoch
        #: the open link-occupancy epoch: an observer created mid-run
        #: samples from that cycle to the end of the epoch containing
        #: it, then epoch by epoch; it never looks further back.
        self._epoch_start = sim.now
        self._next_epoch = (sim.now // epoch + 1) * epoch
        #: (names, values) -> the one mapping spans with those args share.
        self._shared_args: dict[tuple, dict] = {}
        self._open: dict[int, tuple] = {}
        self._span_ids = itertools.count(1)
        #: per-node trace-context stacks (causal request tracing).
        self.causal = CausalTracker()
        #: node -> human label ("kernel0", "app:find-3", ...) for exports.
        self.node_labels: dict[int, str] = {}
        #: optional streaming-telemetry hub (see repro.obs.timeseries);
        #: None by default so instrumented sites pay one branch.
        self.telemetry = None
        #: optional flight recorder (see repro.obs.flight).
        self.flight = None
        #: attached SLO monitors (see repro.obs.slo); consulted by the
        #: kernel to annotate failover verdicts.
        self.slo_monitors: list = []

    # -- installation ----------------------------------------------------

    @classmethod
    def install(cls, sim: "Simulator", **kwargs) -> "Observer":
        """Create an Observer and hook it onto ``sim.obs``."""
        if sim.obs is not None:
            raise RuntimeError("simulator already has an observer installed")
        observer = cls(sim, **kwargs)
        sim.obs = observer
        return observer

    def enable_telemetry(self, **kwargs):
        """Attach a :class:`~repro.obs.timeseries.Telemetry` hub.

        Counters, gauges, and histogram observations recorded through
        this Observer fan into per-epoch series from here on.
        """
        from repro.obs.timeseries import Telemetry

        if self.telemetry is not None:
            raise RuntimeError("telemetry is already enabled")
        self.telemetry = Telemetry(self.sim, **kwargs)
        return self.telemetry

    def enable_flight_recorder(self, **kwargs):
        """Attach a :class:`~repro.obs.flight.FlightRecorder`."""
        from repro.obs.flight import FlightRecorder

        if self.flight is not None:
            raise RuntimeError("flight recorder is already enabled")
        self.flight = FlightRecorder(self, **kwargs)
        return self.flight

    # -- spans -----------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        return list(self._spans)

    @property
    def instants(self) -> list[Instant]:
        return list(self._instants)

    def reserve_span_id(self) -> int:
        """Allocate a span id up front (for spans recorded later with
        :meth:`complete`, e.g. an in-flight DTU message whose id must be
        stamped into the header before the span's end is known)."""
        return next(self._span_ids)

    def begin(self, name: str, category: str, node: int = -1,
              parent: TraceContext | None = None, **args) -> int:
        """Open a span at the current cycle; returns its id.

        The span joins the causal graph: under ``parent`` when given (a
        :class:`~repro.obs.causal.TraceContext` adopted from a message
        header), else under the node's active context, else as the root
        of a new trace.  It stays the node's active context until
        :meth:`end`.
        """
        span_id = next(self._span_ids)
        trace_id, parent_id = self.causal.open(node, span_id, parent)
        self._open[span_id] = (name, category, node, self.sim.now,
                               args or None, trace_id, parent_id)
        return span_id

    def end(self, span_id: int, **args) -> Span:
        """Close an open span at the current cycle."""
        try:
            (name, category, node, begin, begin_args,
             trace_id, parent_id) = self._open.pop(span_id)
        except KeyError:
            raise ValueError(
                f"span id {span_id} is not open (unknown id, or the span "
                f"was already ended)"
            ) from None
        self.causal.close(node, span_id)
        merged = begin_args
        if args:
            merged = {**(begin_args or {}), **args}
        return self._store_span(
            Span(name, category, node, begin, self.sim.now, merged,
                 span_id, parent_id, trace_id)
        )

    def complete(self, name: str, category: str, node: int, begin: int,
                 end: int | None = None, span_id: int = -1,
                 parent: TraceContext | None = None,
                 shared: tuple[tuple, tuple] | None = None, **args) -> Span:
        """Record a span whose begin (and optionally end) is already known.

        Unlike :meth:`begin`, this never starts a new trace: the span
        joins the causal graph only when ``parent`` is a valid context
        (or the node has one active); otherwise it stays unlinked, as
        background spans should.  Pass ``span_id`` (from
        :meth:`reserve_span_id`) when other spans were parented on this
        one before it completed.

        ``shared=(names, values)`` is for the per-packet and per-message
        sites, whose args come from a few hundred distinct value tuples
        a run: the span gets ``dict(zip(names, values))``, but one
        mapping per distinct pair, shared by every span that has it.
        """
        if shared is not None:
            args = self._shared_args.get(shared)
            if args is None:
                args = self._shared_args[shared] = dict(zip(*shared))
        if parent is None:
            parent = self.causal.current(node)
        if parent.valid:
            trace_id, parent_id = parent.trace_id, parent.span_id
            if span_id < 0:
                span_id = next(self._span_ids)
        else:
            trace_id, parent_id = -1, -1
        return self._store_span(
            Span(name, category, node, begin,
                 self.sim.now if end is None else end, args or None,
                 span_id, parent_id, trace_id)
        )

    def _store_span(self, span: Span) -> Span:
        if (self.span_capacity is not None
                and len(self._spans) == self.span_capacity):
            self.spans_dropped += 1
        self._spans.append(span)
        if self.flight is not None:
            self.flight.record_span(span)
        return span

    def instant(self, name: str, category: str, node: int = -1, **args) -> None:
        """Record a point event at the current cycle."""
        if (self.span_capacity is not None
                and len(self._instants) == self.span_capacity):
            self.instants_dropped += 1
        instant = Instant(name, category, node, self.sim.now, args or None)
        self._instants.append(instant)
        if self.flight is not None:
            self.flight.record_instant(instant)

    # -- metrics -----------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Bump a named counter."""
        self.counters[name] = self.counters.get(name, 0) + n
        if self.telemetry is not None:
            self.telemetry.counter(name, n)

    def gauge(self, name: str, value) -> None:
        """Set a named gauge to its latest value."""
        self.gauges[name] = value
        if self.telemetry is not None:
            self.telemetry.gauge(name, value)

    def observe(self, name: str, value: int) -> None:
        """Record a sample into a named histogram."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(name)
        hist.observe(value)
        if self.telemetry is not None:
            self.telemetry.observe(name, value)

    def histogram(self, name: str) -> Histogram:
        """The named histogram (empty if nothing was observed)."""
        return self.histograms.get(name) or Histogram(name)

    # -- link occupancy epochs ----------------------------------------------

    def sample_links(self, network: "Network", force: bool = False) -> None:
        """Fold completed epochs into the per-link occupancy series.

        Called from :meth:`Network.send` whenever observability is on,
        so sampling advances with traffic and never schedules anything
        (a recurring timer would keep the event queue alive forever).
        With ``force``, the trailing partial epoch is flushed too (for
        end-of-run reports).
        """
        now = self.sim.now
        while self._next_epoch <= now:
            self._record_epoch(network, self._epoch_start, self._next_epoch)
            self._epoch_start = self._next_epoch
            self._next_epoch += self.epoch
        if force and now > self._epoch_start:
            self._record_epoch(network, self._epoch_start, now)
        if self.telemetry is not None:
            self.telemetry.advance(now)

    @property
    def links_sampled_to(self) -> int:
        """The start of the first epoch not yet in :attr:`link_series`.

        Link occupancy before this cycle has been read for the last
        time; the network passes it to ``Link.forget_before``.
        """
        return self._epoch_start

    def label_node(self, node: int, label: str) -> None:
        """Attach a human-readable role label to a NoC node (shown as
        the Perfetto process name: kernel domain, app, service, NIC)."""
        self.node_labels[node] = label

    def _record_epoch(self, network: "Network", start: int, end: int) -> None:
        span = end - start
        busy_links, busiest = 0, 0.0
        for key, link in network.iter_links():
            if not link.packets:
                continue
            busy = link.busy_within(end) - link.busy_within(start)
            if busy:
                fraction = busy / span
                self.link_series.setdefault(key, []).append(
                    (end, fraction)
                )
                busy_links += 1
                if fraction > busiest:
                    busiest = fraction
        if self.telemetry is not None and busy_links:
            self.telemetry.gauge("noc.links_busy", busy_links)
            self.telemetry.gauge("noc.link_busy_max", round(busiest, 4))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Observer spans={len(self._spans)} "
                f"instants={len(self._instants)} "
                f"counters={len(self.counters)} "
                f"histograms={len(self.histograms)}>")
