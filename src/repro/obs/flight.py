"""The flight recorder: a bounded black box per kernel domain.

When a failure verdict lands — a kernel domain declared dead, a
watchdog killing a wedged VPE, a route with no live replica — the
post-mortem question is "what did this domain look like just before?".
A dump *reads* the Observer's log: per kernel domain, the most recent
``CAPACITY`` spans and instants recorded since the recorder was
attached (as far back as a ``span_capacity`` log still holds), plus
the last few telemetry epochs; recording pays nothing for it.

``dump(reason)`` freezes that view into a deterministic snapshot —
called by the kernel at each failure verdict and available on demand.
Dumps are plain dicts; :func:`render_dump` formats one as stable text
for reports and CI artifacts.  Node-to-domain attribution comes from
the mapping ``M3System`` installs at boot; unmapped nodes (DRAM, NICs,
the control plane's ``-1``) land in domain ``-1``.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observer import Observer

#: spans/instants per domain in a dump.
CAPACITY = 64

#: telemetry epochs included in a dump.
EPOCHS = 8

#: what :func:`render_dump` prints: the last spans and instants per
#: domain, and the first series (by name).
SPAN_LIMIT, INSTANT_LIMIT, SERIES_LIMIT = 4, 8, 6


class FlightRecorder:
    """Recent history per domain, read from the log on failure verdicts."""

    def __init__(self, observer: "Observer"):
        self.observer = observer
        #: NoC node -> kernel domain; everything else -> domain -1.
        self.domain_of: dict[int, int] = {}
        #: spans / instants logged before it was attached stay out.
        self._since = (len(observer.spans) + observer.spans_dropped,
                       len(observer.instants) + observer.instants_dropped)
        self.dumps: list[dict] = []

    def map_nodes(self, mapping: dict[int, int]) -> None:
        """Attribute NoC nodes to kernel domains."""
        self.domain_of.update(mapping)

    def _recent(self, log, dropped: int, since: int) -> dict:
        """Per domain, oldest first, the last ``CAPACITY`` records logged
        at or after record ``since`` (``log`` dropped its first ``dropped``)."""
        recent: dict[int, list] = {}
        for index in range(len(log) - 1, max(since - dropped, 0) - 1, -1):
            record = log[index]
            kept = recent.setdefault(self.domain_of.get(record.node, -1), [])
            if len(kept) < CAPACITY:
                kept.append(record)
        return {domain: kept[::-1] for domain, kept in sorted(recent.items())}

    def dump(self, reason: str, domain: int | None = None) -> dict:
        """Freeze the recent history into a snapshot; returns and
        retains it.

        ``domain`` names the domain the verdict is about (shown first
        when rendering); every domain's history is included either way.
        """
        observer = self.observer
        spans_since, instants_since = self._since
        telemetry = observer.telemetry
        series_tail: dict[str, list] = {}
        epoch = None
        if telemetry is not None:
            epoch = telemetry.epoch
            for name in telemetry.names():
                points = telemetry.points(name)[-EPOCHS:]
                if telemetry.kinds[name] == "quantile":
                    points = [
                        (index,
                         f"n={hist.count} p99<{hist.percentile(0.99):,}")
                        for index, hist in points
                    ]
                series_tail[name] = points
        snapshot = {
            "reason": reason,
            "cycle": observer.sim.now,
            "domain": domain,
            "epoch": epoch,
            "spans": self._recent(observer.spans, observer.spans_dropped,
                                  spans_since),
            "instants": self._recent(observer.instants,
                                     observer.instants_dropped,
                                     instants_since),
            "telemetry": series_tail,
            "counters": dict(sorted(observer.counters.items())),
        }
        self.dumps.append(snapshot)
        observer.instant(
            "flight_dump", "flight", -1, reason=reason,
            domain=domain if domain is not None else -1,
        )
        return snapshot


def _args_text(args: dict | None) -> str:
    if not args:
        return ""
    return " " + " ".join(
        f"{key}={args[key]}" for key in sorted(args)
    )


def render_dump(dump: dict) -> str:
    """Format one flight dump as deterministic text.

    The verdict's domain renders first; each domain's history is
    tail-truncated to the limits above so reports stay bounded.
    """
    lines = [
        f"flight dump: {dump['reason']}",
        f"  at cycle {dump['cycle']:,}"
        + (f", domain {dump['domain']}" if dump['domain'] is not None
           else ""),
    ]
    domains = sorted(
        set(dump["spans"]) | set(dump["instants"]),
        key=lambda ring_domain: (ring_domain != dump["domain"],
                                 ring_domain),
    )
    for ring_domain in domains:
        lines.append(f"  domain {ring_domain}:")
        instants = dump["instants"].get(ring_domain, [])[-INSTANT_LIMIT:]
        for instant in instants:
            lines.append(
                f"    @{instant.time:>10,} ! {instant.name}"
                f"/{instant.category} node={instant.node}"
                + _args_text(instant.args)
            )
        spans = dump["spans"].get(ring_domain, [])[-SPAN_LIMIT:]
        for span in spans:
            lines.append(
                f"    [{span.begin:>9,}..{span.end:>9,}] {span.name}"
                f"/{span.category} node={span.node}"
                + _args_text(span.args)
            )
    if dump["telemetry"]:
        lines.append(f"  telemetry (epoch={dump['epoch']:,} cycles):")
        for name in sorted(dump["telemetry"])[:SERIES_LIMIT]:
            points = ", ".join(
                f"{index}:{value}"
                for index, value in dump["telemetry"][name]
            )
            lines.append(f"    {name}: {points}")
    return "\n".join(lines)
