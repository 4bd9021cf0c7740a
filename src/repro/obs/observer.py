"""The Observer: the simulation-wide collection hub.

One Observer is installed per simulator (``sim.obs``); every
instrumented component — NoC, DTU, kernel, services — reads that
attribute and pays one ``is None`` branch when observability is off.
Recording keeps the least it can — a row, a total, a buffered sample;
the rest is derived when an epoch closes or somebody reads.  Collected:

- **spans** — typed intervals (:meth:`Observer.begin` / ``end``, or
  :meth:`Observer.complete` once the end is known), each with the causal
  identity :mod:`repro.obs.causal` links into per-request trees;
- **instants** — point events (a retransmit, a watchdog probe);
- **counters / histograms** — named metrics, histograms in the
  deterministic log2 buckets of :mod:`repro.obs.metrics`.

It keeps no epochs: series over time, per-link NoC occupancy among
them, are the telemetry plane's (:mod:`repro.obs.timeseries`).

Span/instant storage is optionally bounded (a ring with a dropped-record
counter) so long fault sweeps cannot grow without bound.
"""

from __future__ import annotations

import array
import collections.abc
import itertools
import operator
import typing

from repro.obs.causal import CausalTracker, TraceContext
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import Histogram
from repro.obs.timeseries import Telemetry

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Span(typing.NamedTuple):
    name: str
    category: str
    node: int
    begin: int
    end: int
    #: read-only, shared by spans with equal args (:class:`Kinds`).
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


class Kinds(dict):
    """``kinds[name, category, names, values]`` is the index in ``log``
    of the kind ``(name, category, dict(zip(names, values)) or None)``,
    appended once per key; kinds with equal args share the mapping."""

    def __init__(self, log: list):
        super().__init__()
        self.log, self._args = log, {}

    def __missing__(self, key: tuple) -> int:
        name, category, names, values = key
        args = self._args.get((names, values))
        if args is None:
            args = self._args[names, values] = dict(zip(names, values)) or None
        kind = self[key] = len(self.log)
        self.log.append((name, category, args))
        return kind


class SpanLog(collections.abc.Sequence):
    """The recorded spans; reads as a sequence of :class:`Span`.

    ``kinds`` holds each distinct ``(name, category, args)`` once and
    ``columns`` one typed array per field of ``(kind, node, begin, end,
    span_id, parent_id, trace_id)``: 36 bytes a span, no object the
    cycle collector tracks, ``OverflowError`` for a value out of range.
    :meth:`Observer.record`, the only writer, overwrites the oldest of
    ``span_capacity`` spans and counts it ``dropped``."""

    def __init__(self):
        self.kinds: list[tuple[str, str, dict | None]] = []
        self.columns = tuple(array.array(code) for code in "iiqqiii")
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        size = len(self.columns[0])
        if isinstance(index, slice):
            return list(map(self.__getitem__, range(size)[index]))
        # Record r sits in slot r % capacity; the oldest held is ``dropped``.
        slot = (self.dropped + range(size)[index]) % size
        kind, node, begin, end, span_id, parent_id, trace_id = self.columns
        name, category, args = self.kinds[kind[slot]]
        return Span(name, category, node[slot], begin[slot], end[slot], args,
                    span_id[slot], parent_id[slot], trace_id[slot])


class Observer:
    """Collects spans, instants, and metrics for one simulation."""

    def __init__(self, sim: "Simulator", span_capacity: int | None = None):
        if span_capacity is not None and span_capacity < 1:
            raise ValueError("span capacity must be positive")
        self.sim = sim
        self.span_capacity = span_capacity
        #: every span held, oldest first (read-only); the kinds table.
        self.spans = SpanLog()
        self.kinds = Kinds(self.spans.kinds)
        self._instants: collections.deque = collections.deque(maxlen=span_capacity)
        self.instants_dropped = 0
        #: counter totals; [name, read, sources, value last added] per
        #: :meth:`monitor`ed total; per histogram, samples not folded in.
        self._counters: dict[str, int] = {}
        self._monitors: list[list] = []
        self._histograms: dict[str, Histogram] = {}
        self._samples: dict[str, array.array] = {}
        self._open: dict[int, tuple] = {}
        self._span_ids = itertools.count(1)
        #: per-node trace-context stacks (causal request tracing).
        self.causal = CausalTracker()
        #: node -> human label ("kernel0", "app:find-3", ...) for exports.
        self.node_labels: dict[int, str] = {}
        #: optional telemetry hub and flight recorder (None costs a site
        #: one branch); SLO monitors the kernel cites in failover verdicts.
        self.telemetry = self.flight = None
        self.slo_monitors: list = []

    # -- installation ----------------------------------------------------

    @classmethod
    def install(cls, sim: "Simulator", **kwargs) -> "Observer":
        """Create an Observer and hook it onto ``sim.obs``."""
        if sim.obs is not None:
            raise RuntimeError("simulator already has an observer installed")
        sim.obs = observer = cls(sim, **kwargs)
        return observer

    def enable_telemetry(self, epoch: int):
        """Attach a :class:`~repro.obs.timeseries.Telemetry` hub of
        ``epoch``-cycle epochs: what is recorded from here on also fans
        into epoch series."""
        if self.telemetry is not None:
            raise RuntimeError("telemetry is already enabled")
        self._settle()
        self.telemetry = Telemetry(self.sim, self._settle, epoch)
        return self.telemetry

    def enable_flight_recorder(self):
        """Attach a :class:`~repro.obs.flight.FlightRecorder`."""
        if self.flight is not None:
            raise RuntimeError("flight recorder is already enabled")
        self.flight = FlightRecorder(self)
        return self.flight

    # -- spans -----------------------------------------------------------

    @property
    def spans_dropped(self) -> int:
        return self.spans.dropped

    @property
    def instants(self) -> list[Instant]:
        return list(self._instants)

    def reserve_span_id(self) -> int:
        """The id of a span to record later (a DTU message's, in flight)."""
        return next(self._span_ids)

    def begin(self, name: str, category: str, node: int = -1,
              parent: TraceContext | None = None, **args) -> int:
        """Open a span at the current cycle; returns its id.  It joins the
        causal graph under ``parent`` (a context adopted from a message
        header), else under the node's active context, else as the root
        of a new trace; until :meth:`end` it is the node's active context."""
        span_id = next(self._span_ids)
        trace_id, parent_id = self.causal.open(node, span_id, parent)
        self._open[span_id] = (name, category, node, self.sim.now,
                               args or None, trace_id, parent_id)
        return span_id

    def end(self, span_id: int, **args) -> int:
        """Close an open span at the current cycle; returns its id."""
        try:
            (name, category, node, begin, begin_args,
             trace_id, parent_id) = self._open.pop(span_id)
        except KeyError:
            raise ValueError(f"span id {span_id} is not open (unknown id, "
                             f"or the span was already ended)") from None
        self.causal.close(node, span_id)
        merged = {**(begin_args or {}), **args} if args else begin_args
        return self.complete(name, category, node, begin, None, span_id,
                             trace_id, parent_id, merged)

    def complete(self, name: str, category: str, node: int, begin: int,
                 end: int | None = None, span_id: int = -1,
                 trace_id: int | None = None, parent_id: int = -1,
                 args: dict | None = None) -> int:
        """Record a span whose begin (and optionally end) is known;
        returns its id (the tuple is ``spans[-1]``).  It never starts a
        trace: it joins one only under a valid ``(trace_id, parent_id)``
        — a packet's or header's stamp or, by default, the node's active
        context — and else stays unlinked, as background spans should.
        Pass the ``span_id`` reserved for it if spans were parented on it
        already.  ``args`` is interned by content (:attr:`kinds`); one
        with an unhashable value is kept as it is, a kind of its own."""
        if trace_id is None:
            trace_id, parent_id = self.causal.current(node)
        try:
            kind = self.kinds[name, category, tuple(args or ()),
                              tuple(args.values()) if args else ()]
        except TypeError:
            kind = len(self.spans.kinds)
            self.spans.kinds.append((name, category, args))
        end = self.sim.now if end is None else end
        return self.record(kind, node, begin, end, span_id, trace_id, parent_id)

    def record(self, kind: int, node: int, begin: int, end: int,
               span_id: int, trace_id: int, parent_id: int) -> int:
        """:meth:`complete` for a resolved ``kind`` (:attr:`kinds`) and
        causal stamp, building no object; the hot sites call it directly."""
        if trace_id < 0:
            trace_id = parent_id = -1
        elif span_id < 0:
            span_id = next(self._span_ids)
        kinds, nodes, begins, ends, ids, parents, traces = self.spans.columns
        full = len(kinds) == self.span_capacity
        # span_id first: it is the largest id, so if it fits the row does.
        ids.append(span_id)
        parents.append(parent_id)
        traces.append(trace_id)
        kinds.append(kind)
        nodes.append(node)
        begins.append(begin)
        ends.append(end)
        if full:  # the new row takes the oldest one's slot
            slot = self.spans.dropped % self.span_capacity
            for column in self.spans.columns:
                column[slot] = column.pop()
            self.spans.dropped += 1
        return span_id

    def instant(self, name: str, category: str, node: int = -1, **args) -> None:
        """Record a point event at the current cycle.  Like :meth:`count`,
        it closes the telemetry epochs that ended."""
        telemetry = self.telemetry
        if telemetry is not None and self.sim.now >= telemetry.closes_at:
            telemetry.advance()
        if len(self._instants) == self.span_capacity:
            self.instants_dropped += 1
        self._instants.append(
            Instant(name, category, node, self.sim.now, args or None))

    # -- metrics -----------------------------------------------------------

    def count(self, name: str) -> None:
        """Bump a named counter by one."""
        counters = self._counters
        counters[name] = counters.get(name, 0) + 1
        telemetry = self.telemetry
        if telemetry is not None:
            if self.sim.now >= telemetry.closes_at:
                telemetry.advance()
            counters = telemetry.open_counters
            counters[name] = counters.get(name, 0) + 1

    def monitor(self, totals: dict[str, str], *sources) -> None:
        """Counter ``name`` follows attribute ``totals[name]`` summed over
        ``sources``, from its present value on, sampled when
        :attr:`counters` is read or an epoch closes: a source moves it
        only after a call that closes ended epochs in the same cycle
        (:meth:`count`, :meth:`observe`, :meth:`instant`, or
        ``Network.send``)."""
        for name, attribute in totals.items():
            read = operator.attrgetter(attribute)
            self._monitors.append(
                [name, read, sources, sum(map(read, sources))])

    @property
    def counters(self) -> dict[str, int]:
        self._settle()
        return self._counters

    def observe(self, name: str, value: int) -> None:
        """Record a sample into a named histogram (:meth:`_settle`)."""
        value = int(value)
        if value < 0:
            raise ValueError(f"histogram samples must be >= 0, got {value}")
        telemetry = self.telemetry
        if telemetry is not None and self.sim.now >= telemetry.closes_at:
            telemetry.advance()
        samples = self._samples.get(name)
        if samples is None:
            self._histograms[name] = Histogram(name)
            samples = self._samples[name] = array.array("q")
        samples.append(value)

    def _settle(self) -> None:
        """Derive what recording put off, before an epoch is taken or
        somebody reads: buffered samples into their histograms, monitored
        movement into the totals, both into the open telemetry epoch."""
        telemetry = self.telemetry
        for name, samples in self._samples.items():
            if samples:
                tally = collections.Counter(samples)
                del samples[:]
                self._histograms[name].observe_many(tally)
                if telemetry is not None:
                    telemetry.observe_many(name, tally)
        for monitor in self._monitors:
            name, read, sources, last = monitor
            moved = sum(map(read, sources)) - last
            if moved:
                monitor[3] += moved
                self._counters[name] = self._counters.get(name, 0) + moved
                if telemetry is not None:
                    telemetry.open_counters[name] = \
                        telemetry.open_counters.get(name, 0) + moved

    @property
    def histograms(self) -> dict[str, Histogram]:
        self._settle()
        return self._histograms

    def label_node(self, node: int, label: str) -> None:
        """Name a NoC node's role (the Perfetto process name)."""
        self.node_labels[node] = label
