"""The flight recorder: a bounded black box per kernel domain.

When a failure verdict lands — a kernel domain declared dead, a
watchdog killing a wedged VPE, a route with no live replica — the
post-mortem question is "what did this domain look like just before?".
A dump *reads* the Observer's log: per kernel domain, the most recent
``SPAN_LIMIT`` spans and ``INSTANT_LIMIT`` instants recorded since the
recorder was attached (as far back as a ``span_capacity`` log still
holds), plus the last ``EPOCHS`` epochs of the first ``SERIES_LIMIT``
telemetry series; recording pays nothing for it.

``dump(reason)`` writes that view as deterministic text for reports
and CI artifacts — called by the kernel at each failure verdict and
available on demand.  Node-to-domain attribution comes from the
mapping ``M3System`` installs at boot; unmapped nodes (DRAM, NICs, the
control plane's ``-1``) land in domain ``-1``.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observer import Observer

#: what a dump holds: the last spans and instants per domain, the
#: first series (by name), and each series' last epochs.
SPAN_LIMIT, INSTANT_LIMIT, SERIES_LIMIT, EPOCHS = 4, 8, 6, 8


class FlightRecorder:
    """Recent history per domain, read from the log on failure verdicts."""

    def __init__(self, observer: "Observer"):
        self.observer = observer
        #: NoC node -> kernel domain; everything else -> domain -1.
        self.domain_of: dict[int, int] = {}
        #: spans / instants logged before it was attached stay out.
        self._since = (len(observer.spans) + observer.spans_dropped,
                       len(observer.instants) + observer.instants_dropped)
        self.dumps: list[str] = []

    def map_nodes(self, mapping: dict[int, int]) -> None:
        """Attribute NoC nodes to kernel domains."""
        self.domain_of.update(mapping)

    def _recent(self, log, dropped: int, since: int, limit: int) -> dict:
        """Per domain, oldest first, the last ``limit`` records logged at
        or after record ``since`` (``log`` dropped its first ``dropped``)."""
        recent: dict[int, list] = {}
        for index in range(len(log) - 1, max(since - dropped, 0) - 1, -1):
            record = log[index]
            kept = recent.setdefault(self.domain_of.get(record.node, -1), [])
            if len(kept) < limit:
                kept.append(record)
        return {domain: kept[::-1] for domain, kept in recent.items()}

    def dump(self, reason: str, domain: int | None = None) -> str:
        """Write the recent history as text; returns and retains it.

        ``domain`` names the domain the verdict is about, which prints
        first; every domain's history is included either way.
        """
        observer = self.observer
        spans_since, instants_since = self._since
        spans = self._recent(observer.spans, observer.spans_dropped,
                             spans_since, SPAN_LIMIT)
        instants = self._recent(observer.instants, observer.instants_dropped,
                                instants_since, INSTANT_LIMIT)
        lines = [
            f"flight dump: {reason}",
            f"  at cycle {observer.sim.now:,}"
            + (f", domain {domain}" if domain is not None else ""),
        ]
        for ring_domain in sorted(set(spans) | set(instants),
                                  key=lambda d: (d != domain, d)):
            lines.append(f"  domain {ring_domain}:")
            for instant in instants.get(ring_domain, []):
                lines.append(
                    f"    @{instant.time:>10,} ! {instant.name}"
                    f"/{instant.category} node={instant.node}"
                    + _args_text(instant.args)
                )
            for span in spans.get(ring_domain, []):
                lines.append(
                    f"    [{span.begin:>9,}..{span.end:>9,}] {span.name}"
                    f"/{span.category} node={span.node}"
                    + _args_text(span.args)
                )
        telemetry = observer.telemetry
        names = [] if telemetry is None else telemetry.names()[:SERIES_LIMIT]
        if names:
            lines.append(f"  telemetry (epoch={telemetry.epoch:,} cycles):")
        for name in names:
            points = telemetry.points(name)[-EPOCHS:]
            if telemetry.kinds[name] == "quantile":
                points = [
                    (index, f"n={hist.count} p99<{hist.percentile(0.99):,}")
                    for index, hist in points
                ]
            lines.append(f"    {name}: " + ", ".join(
                f"{index}:{value}" for index, value in points))
        text = "\n".join(lines)
        self.dumps.append(text)
        observer.instant(
            "flight_dump", "flight", -1, reason=reason,
            domain=domain if domain is not None else -1,
        )
        return text


def _args_text(args: dict | None) -> str:
    return "".join(f" {key}={args[key]}" for key in sorted(args or ()))
