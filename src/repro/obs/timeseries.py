"""Epoch-bucketed time-series telemetry.

The Observer's counters and histograms answer "what happened over the
whole run"; the telemetry plane adds the time axis.  Simulated
time is cut into fixed *epochs* (``epoch`` cycles each, numbered from
0), and every instrument folds into the epoch containing the current
cycle:

- **counter series** — per-epoch deltas (requests this epoch, retries
  this epoch), summed within the epoch;
- **gauge series** — one sampled value per epoch (queue depth, link
  occupancy), from the *samplers* below;
- **quantile series** — one deterministic
  :class:`~repro.obs.metrics.Histogram` per epoch (per-epoch p99
  without storing samples).

Epochs advance *lazily*: every record checks the clock
(:attr:`Telemetry.closes_at`), as does ``Network.send`` before it
reserves — the telemetry plane never schedules simulator events, so an
idle simulation still drains its queue.  The first epoch is the one
containing the cycle the plane is enabled at, counted from that cycle.
When an epoch closes the Observer first *settles* (adds its buffered
samples and what its monitored counters moved by), then registered
*samplers* are polled with the epoch's bounds — how sources nobody
pushes get a series: per-replica kv queue depth, and per-link NoC
occupancy (:class:`LinkOccupancy`).  Retention is a ring: each series
keeps its latest ``RETENTION`` epochs and counts the rest.
"""

from __future__ import annotations

import collections
import typing

from repro.obs.metrics import Histogram

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

#: per-series ring size, in epochs.
RETENTION = 1024

#: sub-bucket bits of each epoch's quantile histogram.
PRECISION = 7

COUNTER, GAUGE, QUANTILE = "counter", "gauge", "quantile"

#: prefix of a link's occupancy series, ``noc.link.<source>-><destination>``.
LINK_SERIES = "noc.link."


class Telemetry:
    """Per-epoch series for one simulation (``observer.telemetry``)."""

    def __init__(self, sim: "Simulator", settle, epoch: int):
        if epoch < 1:
            raise ValueError("telemetry epoch must be positive")
        self.sim = sim
        self.epoch = epoch
        #: name -> series kind (fixed at first record).
        self.kinds: dict[str, str] = {}
        #: name -> deque of (epoch_index, value); value is an int/float
        #: for counter/gauge series, a Histogram for quantile series.
        self._series: dict[str, collections.deque] = {}
        #: the open (accumulating) epoch: its index, the cycle it opened
        #: at (creation's, for the first) and the cycle it ends at, at or
        #: after which a record calls :meth:`advance` first.
        self._open_index = sim.now // epoch
        self._opened_at = sim.now
        self.closes_at = (self._open_index + 1) * epoch
        #: called before the open epoch is taken (close or flush) so the
        #: owner can add what it has not pushed yet.
        self._settle = settle
        self.open_counters: dict[str, int] = {}
        self._open_quantiles: dict[str, Histogram] = {}
        #: quantile series name -> sorted thresholds; a sample above one
        #: bumps the counter series ``{name}.over_{threshold}`` (SLO
        #: monitors get exact bad-event counts, not sub-bucket reads).
        self._watches: dict[str, tuple[int, ...]] = {}
        #: callables polled at each epoch close and flush; each returns
        #: an iterable of (gauge name, value) pairs (:meth:`add_sampler`).
        self.samplers: list = []
        #: called after an epoch folds: fn(epoch_index, end_cycle).
        self.on_epoch_close: list = []

    # -- recording -------------------------------------------------------

    def observe_many(self, name: str, samples) -> None:
        """Fold samples taken *while the open epoch was open* into its
        histogram and over-threshold counts (no look at the clock)."""
        tally = collections.Counter(samples)
        if name not in self._open_quantiles:
            self._open_quantiles[name] = Histogram(name, PRECISION)
        self._open_quantiles[name].observe_many(tally)
        for threshold in self._watches.get(name, ()):
            over = sum(n for value, n in tally.items() if value > threshold)
            if over:
                series = f"{name}.over_{threshold}"
                self.open_counters[series] = \
                    self.open_counters.get(series, 0) + over

    def watch_threshold(self, name: str, threshold: int) -> str:
        """Count samples of quantile series ``name`` above ``threshold``
        exactly; returns the counter series that carries the count
        (``{name}.over_{threshold}``)."""
        current = self._watches.get(name, ())
        if threshold not in current:
            self._watches[name] = tuple(sorted(current + (threshold,)))
        return f"{name}.over_{threshold}"

    def add_sampler(self, sampler) -> None:
        """Register ``sampler(start, end, closes)``, polled with the
        bounds of each epoch that closes (``closes`` true) or is flushed
        (``end`` is then the current cycle); it returns an iterable of
        ``(gauge name, value)`` pairs."""
        self.samplers.append(sampler)

    # -- epoch machinery -------------------------------------------------

    def advance(self) -> None:
        """Close every epoch that ended at or before the current cycle."""
        epoch = self.epoch
        target = self.sim.now // epoch
        if self._open_index < target:
            # Move on before anything runs: a sampler or hook that
            # records re-enters here, and what it records belongs to
            # the epoch containing ``now``, not to one being closed.
            first, self._open_index = self._open_index, target
            start, self._opened_at = self._opened_at, target * epoch
            self.closes_at = (target + 1) * epoch
            self._close_epoch(first, start, self.end_cycle(first), True,
                              *self._take_open())
            # Every record ticks first, so the epochs after the one
            # that was open saw none.
            for index in range(first + 1, target):
                self._close_epoch(index, index * epoch, (index + 1) * epoch,
                                  True, {}, {})

    def flush(self) -> None:
        """Fold the trailing partial epoch (for end-of-run reports).

        Idempotent: records landing after a flush re-open the same
        epoch and a later flush combines them; a sampler's gauge is
        replaced by its value at the later flush or at the close.
        """
        self.advance()
        self._close_epoch(self._open_index, self._opened_at, self.sim.now,
                          False, *self._take_open())

    def _take_open(self) -> tuple[dict, dict]:
        """Hand over the open epoch's accumulators, leaving fresh ones."""
        self._settle()
        taken = self.open_counters, self._open_quantiles
        self.open_counters, self._open_quantiles = {}, {}
        return taken

    def _close_epoch(self, index: int, start: int, end: int, closes: bool,
                     counters: dict, quantiles: dict) -> None:
        """Fold what epoch ``index`` recorded over ``[start, end)``, plus
        the samplers' gauges, into the series; then run the close hooks."""
        gauges = {}
        for sampler in self.samplers:
            gauges.update(sampler(start, end, closes))
        for name, value in counters.items():
            self._fold(name, COUNTER, index, value)
        for name, value in gauges.items():
            self._fold(name, GAUGE, index, value)
        for name, hist in quantiles.items():
            self._fold(name, QUANTILE, index, hist)
        end_cycle = self.end_cycle(index)
        for hook in self.on_epoch_close:
            hook(index, end_cycle)

    def _fold(self, name: str, kind: str, index: int, value) -> None:
        known = self.kinds.get(name)
        if known is None:
            self.kinds[name] = kind
            self._series[name] = collections.deque(maxlen=RETENTION)
        elif known != kind:
            raise ValueError(
                f"series {name!r} is a {known}, not a {kind}"
            )
        ring = self._series[name]
        if ring and ring[-1][0] == index:  # re-flush of a partial epoch
            last_index, last_value = ring[-1]
            if kind == COUNTER:
                value = last_value + value
            elif kind == QUANTILE:
                last_value.merge(value)
                value = last_value
            ring[-1] = (last_index, value)
            return
        ring.append((index, value))

    # -- reading ---------------------------------------------------------

    def names(self) -> list[str]:
        return sorted(self._series)

    def points(self, name: str) -> list[tuple[int, typing.Any]]:
        """Closed epochs of a series as ``(epoch_index, value)`` pairs."""
        return list(self._series.get(name, ()))

    def end_cycle(self, index: int) -> int:
        """The cycle at which epoch ``index`` ends (exclusive)."""
        return (index + 1) * self.epoch

    def value_at(self, name: str, index: int):
        """The series value at one epoch (0 when absent)."""
        for point_index, value in self._series.get(name, ()):
            if point_index == index:
                return value
        return 0

    def window_sum(self, name: str, last_index: int, width: int) -> int:
        """Sum of a counter series over ``[last_index - width + 1,
        last_index]`` — missing epochs count 0."""
        first = last_index - width + 1
        total = 0
        for index, value in self._series.get(name, ()):
            if first <= index <= last_index:
                total += value
        return total


class LinkOccupancy:
    """A sampler (:meth:`Telemetry.add_sampler`): each NoC link's exact
    busy fraction per epoch it was busy in, as the gauge series
    ``noc.link.<source>-><destination>``.  Created when telemetry is
    enabled, it keeps one busy total per link from then on (the links
    forget what ended before their last reservation), emits
    ``busy_within(end)`` less the total over ``end - start``, and moves
    the total only when the epoch closes.  ``Network.send`` closes ended
    epochs before it reserves, so no ``end`` is before a reservation's
    head."""

    def __init__(self, network):
        now = network.sim.now
        self._links = [(f"{LINK_SERIES}{source}->{destination}", link)
                       for (source, destination), link in network.iter_links()]
        self._busy = [link.busy_within(now) for _name, link in self._links]

    def __call__(self, start: int, end: int, closes: bool) -> list:
        points = []
        if end > start:
            busy_totals = self._busy
            for index, (name, link) in enumerate(self._links):
                total = link.packets and link.busy_within(end)
                busy = total - busy_totals[index]
                if busy:
                    points.append((name, busy / (end - start)))
                    if closes:
                        busy_totals[index] = total
        return points
