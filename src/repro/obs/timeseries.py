"""Epoch-bucketed time-series telemetry.

The Observer's counters and histograms answer "what happened over the
whole run"; the telemetry plane adds the time axis.  Simulated
time is cut into fixed *epochs* (``epoch`` cycles each, numbered from
0), and every instrument folds into the epoch containing the current
cycle:

- **counter series** — per-epoch deltas (requests this epoch, retries
  this epoch), summed within the epoch;
- **gauge series** — last-written value per epoch (queue depth, live
  replica count);
- **quantile series** — one deterministic
  :class:`~repro.obs.metrics.Histogram` per epoch (per-epoch p99
  without storing samples).

Epochs advance *lazily*: every record checks the clock
(:attr:`Telemetry.closes_at`), as does the Observer's ``sample_links``
path — the telemetry plane never schedules simulator events, so an idle
simulation still drains its queue.  When an epoch closes the Observer
first *settles* (adds its buffered samples and what its monitored
counters moved by), then registered *samplers* (callables returning
``(name, value)`` gauge pairs) are polled — how sources nobody pushes,
like per-replica kv queue depth, get a series.  Retention is a ring:
each series keeps its latest ``RETENTION`` epochs and counts the rest.
"""

from __future__ import annotations

import collections
import typing

from repro.obs.metrics import Histogram

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator

#: default telemetry epoch in cycles — coarser than the 10k-cycle link
#: epochs; one row per epoch in the eval reports.
DEFAULT_TELEMETRY_EPOCH = 50_000

#: per-series ring size, in epochs.
RETENTION = 1024

#: sub-bucket bits of each epoch's quantile histogram.
PRECISION = 7

COUNTER, GAUGE, QUANTILE = "counter", "gauge", "quantile"


class Telemetry:
    """Per-epoch series for one simulation (``observer.telemetry``)."""

    def __init__(self, sim: "Simulator", settle,
                 epoch: int = DEFAULT_TELEMETRY_EPOCH):
        if epoch < 1:
            raise ValueError("telemetry epoch must be positive")
        self.sim = sim
        self.epoch = epoch
        #: name -> series kind (fixed at first record).
        self.kinds: dict[str, str] = {}
        #: name -> deque of (epoch_index, value); value is an int/float
        #: for counter/gauge series, a Histogram for quantile series.
        self._series: dict[str, collections.deque] = {}
        #: index of the open (accumulating) epoch, and the cycle it ends
        #: at: a record at or after it calls :meth:`advance` first.
        self._open_index = 0
        self.closes_at = epoch
        #: called before the open epoch is taken (close or flush) so the
        #: owner can add what it has not pushed yet.
        self._settle = settle
        self.open_counters: dict[str, int] = {}
        self._open_gauges: dict[str, float] = {}
        self._open_quantiles: dict[str, Histogram] = {}
        #: quantile series name -> sorted thresholds; a sample above one
        #: bumps the counter series ``{name}.over_{threshold}`` (SLO
        #: monitors get exact bad-event counts, not sub-bucket reads).
        self._watches: dict[str, tuple[int, ...]] = {}
        #: callables polled at each epoch close; each returns an
        #: iterable of (gauge name, value) pairs.
        self.samplers: list = []
        #: called after an epoch folds: fn(epoch_index, end_cycle).
        self.on_epoch_close: list = []

    # -- recording -------------------------------------------------------

    def gauge(self, name: str, value) -> None:
        """Set the open epoch's value for ``name`` (last write wins)."""
        self.advance()
        self._open_gauges[name] = value

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
        """Register a callable polled at each epoch close; it returns
        an iterable of ``(gauge name, value)`` pairs."""
        self.samplers.append(sampler)

    # -- epoch machinery -------------------------------------------------

    def advance(self, now: int | None = None) -> None:
        """Close every epoch that ended at or before ``now``."""
        if now is None:
            now = self.sim.now
        target = now // self.epoch
        if self._open_index < target:
            # Move on before anything runs: a sampler or hook that
            # records re-enters here, and what it records belongs to
            # the epoch containing ``now``, not to one being closed.
            first, self._open_index = self._open_index, target
            self.closes_at = (target + 1) * self.epoch
            self._close_epoch(first, *self._take_open())
            # Every record ticks first, so the epochs after the one
            # that was open saw none.
            for index in range(first + 1, target):
                self._close_epoch(index, {}, {}, {})

    def flush(self) -> None:
        """Fold the trailing partial epoch (for end-of-run reports).

        Idempotent: records landing after a flush re-open the same
        epoch and a later flush combines them.
        """
        self.advance(self.sim.now)
        self._close_epoch(self._open_index, *self._take_open())

    def _take_open(self) -> tuple[dict, dict, dict]:
        """Hand over the open epoch's accumulators, leaving fresh ones."""
        self._settle()
        taken = self.open_counters, self._open_gauges, self._open_quantiles
        self.open_counters, self._open_gauges, self._open_quantiles = \
            {}, {}, {}
        return taken

    def _close_epoch(self, index: int, counters: dict, gauges: dict,
                     quantiles: dict) -> None:
        """Fold what epoch ``index`` recorded, plus the samplers' gauges,
        into the series; then run the close hooks."""
        for sampler in self.samplers:
            gauges.update(sampler())
        for name, value in counters.items():
            self._fold(name, COUNTER, index, value)
        for name, value in gauges.items():
            self._fold(name, GAUGE, index, value)
        for name, hist in quantiles.items():
            self._fold(name, QUANTILE, index, hist)
        end_cycle = (index + 1) * self.epoch
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

    def value_at(self, name: str, index: int, default=0):
        """The series value at one epoch (``default`` when absent)."""
        for point_index, value in self._series.get(name, ()):
            if point_index == index:
                return value
        return default

    def window_sum(self, name: str, last_index: int, width: int) -> int:
        """Sum of a counter series over ``[last_index - width + 1,
        last_index]`` — missing epochs count 0."""
        first = last_index - width + 1
        total = 0
        for index, value in self._series.get(name, ()):
            if first <= index <= last_index:
                total += value
        return total
