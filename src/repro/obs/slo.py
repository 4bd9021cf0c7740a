"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SloSpec` states an objective over the telemetry plane's
epoch series — either a **latency** objective ("at least ``target`` of
``series`` samples at or below ``threshold`` cycles") or an
**availability** objective ("at most ``1 - target`` of ``total_series``
events land in ``bad_series``").  The :class:`SloMonitor` evaluates it
in-sim, at every telemetry epoch close, with the standard burn-rate
construction:

    error budget = 1 - target
    burn rate over a window = (bad events / total events) / budget

A burn rate of 1.0 consumes the budget exactly at the sustainable
pace; a burn of 10 exhausts it ten times too fast.  Each alert rule
pairs a *short* and a *long* sliding window (both in epochs) with one
factor: the alert **fires** when both windows burn at or above the
factor — the long window proves the problem is real, the short window
proves it is still happening — and resolves when either drops below.
Fired alerts are recorded as Observer instants and on the monitor's
``alerts`` list, where the control plane consumes them: kernel
failover verdicts are annotated with the alert that preceded them.

Everything is a pure function of closed telemetry epochs, so two runs
of the same simulation alert on the same cycle.
"""

from __future__ import annotations

import dataclasses
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observer import Observer

#: default alert rules: (severity, short window, long window, factor),
#: windows in telemetry epochs.  The page rule catches fast burns (a
#: fault window, a dead domain); the ticket rule catches slow leaks.
DEFAULT_WINDOWS = (
    ("page", 2, 12, 6.0),
    ("ticket", 6, 36, 2.0),
)


@dataclasses.dataclass(frozen=True)
class SloSpec:
    """One objective.  Exactly one of the two modes must be set:

    - latency: ``series`` (a quantile series) + ``threshold`` — a
      sample is bad when it exceeds ``threshold`` cycles;
    - availability: ``bad_series`` / ``total_series`` (counter series).
    """

    name: str
    target: float
    series: str = ""
    threshold: int = 0
    bad_series: str = ""
    total_series: str = ""

    def __post_init__(self):
        if not (0.0 < self.target < 1.0):
            raise ValueError(
                f"SLO target must be in (0, 1), got {self.target}"
            )
        latency = bool(self.series)
        availability = bool(self.bad_series) and bool(self.total_series)
        if latency == availability:
            raise ValueError(
                "an SloSpec needs either series+threshold (latency) or "
                "bad_series+total_series (availability), not both/neither"
            )

    @property
    def kind(self) -> str:
        return "latency" if self.series else "availability"

    def describe(self) -> str:
        if self.kind == "latency":
            return (f"{self.target:.2%} of {self.series} "
                    f"<= {self.threshold:,} cycles")
        return (f"{self.target:.2%} of {self.total_series} "
                f"not in {self.bad_series}")


class SloMonitor:
    """Evaluates one spec at every telemetry epoch close."""

    def __init__(self, observer: "Observer", spec: SloSpec,
                 windows=DEFAULT_WINDOWS):
        if observer.telemetry is None:
            raise RuntimeError("enable telemetry before adding SLOs")
        self.observer = observer
        self.telemetry = observer.telemetry
        self.spec = spec
        self.windows = tuple(windows)
        self.budget = 1.0 - spec.target
        if spec.kind == "latency":
            self.bad_series = self.telemetry.watch_threshold(
                spec.series, spec.threshold
            )
        else:
            self.bad_series = spec.bad_series
        #: per closed epoch: (epoch_index, end_cycle, epoch_bad,
        #: epoch_total, {severity: (short_burn, long_burn)},
        #: (active severities...)).
        self.timeline: list[tuple] = []
        #: (end_cycle, severity, "fire" | "resolve", short, long).
        self.alerts: list[tuple] = []
        self._active: dict[str, bool] = {}
        self.telemetry.on_epoch_close.append(self._on_epoch_close)
        observer.slo_monitors.append(self)

    # -- reading the series -------------------------------------------

    def _window_bad_total(self, index: int, width: int) -> tuple[int, int]:
        bad = self.telemetry.window_sum(self.bad_series, index, width)
        if self.spec.kind == "latency":
            first = index - width + 1
            total = sum(
                hist.count
                for point_index, hist in self.telemetry.points(
                    self.spec.series
                )
                if first <= point_index <= index
            )
        else:
            total = self.telemetry.window_sum(
                self.spec.total_series, index, width
            )
        return bad, total

    def burn(self, index: int, width: int) -> float:
        """Burn rate over the window ending at epoch ``index``."""
        bad, total = self._window_bad_total(index, width)
        if not total:
            return 0.0
        return (bad / total) / self.budget

    # -- evaluation ----------------------------------------------------

    def _on_epoch_close(self, index: int, end_cycle: int) -> None:
        epoch_bad, epoch_total = self._window_bad_total(index, 1)
        burns: dict[str, tuple[float, float]] = {}
        active = []
        for severity, short_window, long_window, factor in self.windows:
            short_burn = self.burn(index, short_window)
            long_burn = self.burn(index, long_window)
            burns[severity] = (short_burn, long_burn)
            firing = short_burn >= factor and long_burn >= factor
            was_firing = self._active.get(severity, False)
            if firing and not was_firing:
                self.alerts.append(
                    (end_cycle, severity, "fire", short_burn, long_burn)
                )
                self.observer.instant(
                    f"slo_{severity}", "slo", -1, slo=self.spec.name,
                    epoch=index, short_burn=round(short_burn, 2),
                    long_burn=round(long_burn, 2),
                )
            elif was_firing and not firing:
                self.alerts.append(
                    (end_cycle, severity, "resolve", short_burn,
                     long_burn)
                )
                self.observer.instant(
                    f"slo_{severity}_resolved", "slo", -1,
                    slo=self.spec.name, epoch=index,
                )
            self._active[severity] = firing
            if firing:
                active.append(severity)
        self.timeline.append(
            (index, end_cycle, epoch_bad, epoch_total, burns,
             tuple(active))
        )

    # -- consumption ---------------------------------------------------

    @property
    def breached(self) -> bool:
        """Whether any alert ever fired."""
        return any(state == "fire" for _, _, state, _, _ in self.alerts)

    def verdict(self) -> dict:
        """End-of-run summary for reports."""
        bad = total = 0
        for _, _, epoch_bad, epoch_total, _, _ in self.timeline:
            bad += epoch_bad
            total += epoch_total
        worst = 0.0
        for _, _, _, _, burns, _ in self.timeline:
            for short_burn, long_burn in burns.values():
                worst = max(worst, short_burn, long_burn)
        return {
            "name": self.spec.name,
            "objective": self.spec.describe(),
            "bad": bad,
            "total": total,
            "good_fraction": 1.0 - (bad / total) if total else 1.0,
            "worst_burn": worst,
            "alerts": sum(
                1 for _, _, state, _, _ in self.alerts if state == "fire"
            ),
            "breached": self.breached,
        }


def last_alert_before(observer: "Observer", cycle: int) -> tuple | None:
    """The most recent SLO alert fired at or before ``cycle``, across
    every monitor: ``(end_cycle, slo name, severity)`` or None.  This
    is the annotation the kernel attaches to failover verdicts."""
    best = None
    for monitor in observer.slo_monitors:
        for end_cycle, severity, state, _, _ in monitor.alerts:
            if state == "fire" and end_cycle <= cycle:
                if best is None or end_cycle > best[0]:
                    best = (end_cycle, monitor.spec.name, severity)
    return best
