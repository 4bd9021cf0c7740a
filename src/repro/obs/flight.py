"""The flight recorder: a bounded black box per kernel domain.

When a failure verdict lands — a kernel domain declared dead, a
watchdog killing a wedged VPE, a route with no live replica — the
post-mortem question is "what did this domain look like just before?".
The full span/instant stores answer it only if they are unbounded; the
flight recorder answers it with O(1) memory: per kernel domain, a ring
of the most recent ``capacity`` spans and instants (fed by the
Observer at record time, one branch when disabled), plus the last few
telemetry epochs.

``dump(reason)`` freezes the rings into a deterministic snapshot —
called by the kernel at each failure verdict and available on demand.
Dumps are plain dicts; :func:`render_dump` formats one as stable text
for reports and CI artifacts.  Node-to-domain attribution comes from
the mapping ``M3System`` installs at boot; unmapped nodes (DRAM, NICs,
the control plane's ``-1``) land in domain ``-1``.
"""

from __future__ import annotations

import collections
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observer import Instant, Observer, Span

#: spans/instants retained per domain ring.
DEFAULT_CAPACITY = 64

#: telemetry epochs included in a dump.
DEFAULT_EPOCHS = 8


class FlightRecorder:
    """Bounded recent-history rings, dumped on failure verdicts."""

    def __init__(self, observer: "Observer",
                 capacity: int = DEFAULT_CAPACITY,
                 epochs: int = DEFAULT_EPOCHS):
        if capacity < 1:
            raise ValueError("flight capacity must be positive")
        self.observer = observer
        self.capacity = capacity
        self.epochs = epochs
        #: NoC node -> kernel domain; everything else -> domain -1.
        self.domain_of: dict[int, int] = {}
        self._spans: dict[int, collections.deque] = {}
        self._instants: dict[int, collections.deque] = {}
        self.dumps: list[dict] = []

    def map_nodes(self, mapping: dict[int, int]) -> None:
        """Attribute NoC nodes to kernel domains for the rings."""
        self.domain_of.update(mapping)

    # -- feeding (called by the Observer, one branch when off) ---------

    def _ring(self, store: dict, node: int) -> collections.deque:
        domain = self.domain_of.get(node, -1)
        ring = store.get(domain)
        if ring is None:
            ring = store[domain] = collections.deque(maxlen=self.capacity)
        return ring

    def record_span(self, span: "Span") -> None:
        self._ring(self._spans, span.node).append(span)

    def record_instant(self, instant: "Instant") -> None:
        self._ring(self._instants, instant.node).append(instant)

    # -- dumping -------------------------------------------------------

    def dump(self, reason: str, domain: int | None = None) -> dict:
        """Freeze the rings into a snapshot; returns and retains it.

        ``domain`` names the domain the verdict is about (shown first
        when rendering); every domain's ring is included either way.
        """
        telemetry = self.observer.telemetry
        series_tail: dict[str, list] = {}
        epoch = None
        if telemetry is not None:
            epoch = telemetry.epoch
            for name in telemetry.names():
                points = telemetry.points(name)[-self.epochs:]
                kind = telemetry.kinds[name]
                if kind == "quantile":
                    points = [
                        (index,
                         f"n={hist.count} p99<{hist.percentile(0.99):,}")
                        for index, hist in points
                    ]
                series_tail[name] = [
                    (index, value) for index, value in points
                ]
        snapshot = {
            "reason": reason,
            "cycle": self.observer.sim.now,
            "domain": domain,
            "epoch": epoch,
            "spans": {
                ring_domain: list(ring)
                for ring_domain, ring in sorted(self._spans.items())
            },
            "instants": {
                ring_domain: list(ring)
                for ring_domain, ring in sorted(self._instants.items())
            },
            "telemetry": series_tail,
            "counters": dict(sorted(self.observer.counters.items())),
        }
        self.dumps.append(snapshot)
        self.observer.instant(
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


def render_dump(dump: dict, span_limit: int = 10,
                instant_limit: int = 12, series_limit: int = 12) -> str:
    """Format one flight dump as deterministic text.

    The verdict's domain renders first; rings are tail-truncated to
    the given limits so reports stay bounded.
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
        instants = dump["instants"].get(ring_domain, [])[-instant_limit:]
        for instant in instants:
            lines.append(
                f"    @{instant.time:>10,} ! {instant.name}"
                f"/{instant.category} node={instant.node}"
                + _args_text(instant.args)
            )
        spans = dump["spans"].get(ring_domain, [])[-span_limit:]
        for span in spans:
            lines.append(
                f"    [{span.begin:>9,}..{span.end:>9,}] {span.name}"
                f"/{span.category} node={span.node}"
                + _args_text(span.args)
            )
    if dump["telemetry"]:
        lines.append(f"  telemetry (epoch={dump['epoch']:,} cycles):")
        for name in sorted(dump["telemetry"])[:series_limit]:
            points = ", ".join(
                f"{index}:{value}"
                for index, value in dump["telemetry"][name]
            )
            lines.append(f"    {name}: {points}")
    return "\n".join(lines)
