"""The network facade: packet delivery with wormhole-style timing.

A packet's head flit advances one router per :data:`~repro.params`
hop latency; the body streams behind it at link bandwidth.  Each link
on the XY path is reserved for the packet's serialisation time, so two
packets crossing the same link queue behind each other.  Delivery
completes when the tail clears the last link.
"""

from __future__ import annotations

import typing

from repro import params
from repro.noc.link import Link, reserve_path
from repro.noc.packet import Packet
from repro.noc.routing import XYRouter
from repro.noc.topology import MeshTopology

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim import Simulator

#: Wire overhead per packet: routing/flow-control header flits.
PACKET_HEADER_BYTES = 16

#: Arg names of the per-packet span and of its queueing span.
_PACKET_SPAN_ARGS = ("destination", "bytes", "verdict")
_QUEUE_SPAN_ARGS = ("destination", "cycles")

DeliveryHandler = typing.Callable[[Packet], None]


class _PathTable(dict):
    """``(source, destination) -> tuple of Links``, resolved on first
    use: the topology is immutable, so a route never changes, and a
    hit costs the per-packet path one dict lookup and no call.  The hop
    pairs come from the router's memo, shared by every network of this
    mesh shape; each network maps them to its own links."""

    def __init__(self, router: XYRouter, links: dict):
        super().__init__()
        self._router = router
        self._links = links

    def __missing__(self, key: tuple[int, int]) -> tuple[Link, ...]:
        path = self[key] = tuple(map(self._links.__getitem__,
                                     self._router.hops(*key)))
        return path


class Network:
    """A mesh NoC that delivers packets to per-node handlers."""

    def __init__(
        self,
        sim: "Simulator",
        topology: MeshTopology,
        hop_cycles: int = params.NOC_HOP_CYCLES,
        bytes_per_cycle: int = params.NOC_BYTES_PER_CYCLE,
    ):
        if hop_cycles < 0:
            raise ValueError("hop latency cannot be negative")
        if bytes_per_cycle < 1:
            raise ValueError("link bandwidth must be at least 1 byte/cycle")
        self.sim = sim
        self.topology = topology
        self.router = XYRouter(topology)
        self.hop_cycles = hop_cycles
        self.bytes_per_cycle = bytes_per_cycle
        self._links: dict[tuple[int, int], Link] = {
            (a, b): Link(a, b) for a, b in topology.links()
        }
        # Every node also gets a real loopback link, so same-node
        # transfers queue, count, and report like any other traffic.
        for node in range(topology.node_count):
            self._links[(node, node)] = Link(node, node)
        #: ``paths[source, destination]``: the links a packet occupies,
        #: in order (a same-node transfer crosses the loopback link).
        self.paths = _PathTable(self.router, self._links)
        self._handlers: dict[int, DeliveryHandler] = {}
        #: injection-side counters: every packet handed to the NoC.
        self.packets_injected = 0
        self.bytes_injected = 0
        #: delivery-side counters: packets that actually reached (or
        #: will reach) their handler — faults can make these lower.
        self.packets_sent = 0
        self.bytes_sent = 0
        #: optional fault plan (see :mod:`repro.faults`); with None
        #: installed, delivery pays exactly one branch per packet.
        self.fault_plan = None
        self.packets_lost = 0
        #: the observer that samples the counters above.
        self._monitored_by = None

    # -- attachment ----------------------------------------------------------

    def attach(self, node: int, handler: DeliveryHandler) -> None:
        """Register the hardware model that receives packets at ``node``."""
        self.topology._check(node)
        if node in self._handlers:
            raise ValueError(f"node {node} already has an attached handler")
        self._handlers[node] = handler

    def link(self, source: int, destination: int) -> Link:
        """The directed link between two adjacent nodes (for stats/tests)."""
        try:
            return self._links[(source, destination)]
        except KeyError:
            raise ValueError(f"no link {source}->{destination}") from None

    def iter_links(self):
        """Iterate ``((source, destination), Link)`` pairs — the public
        face of the link table, for observers and reports (loopback
        links ``(n, n)`` included)."""
        return iter(self._links.items())

    # -- sending ----------------------------------------------------------------

    def send(self, packet: Packet) -> int:
        """Inject ``packet``; schedule delivery; return the completion cycle.

        An installed observer meets the packet first, before anything
        is reserved or counted: it registers this network's totals
        (``Observer.monitor``) once, and its telemetry, if any, closes
        every epoch that ended, so the epochs close without this packet
        and every reader of the links asks at or after the cycle of
        every reservation already made.  The links on the path then
        forget what ended before the packet's head (``reserve_path``).
        """
        try:
            handler = self._handlers[packet.destination]
        except KeyError:
            raise RuntimeError(
                f"packet to node {packet.destination} but nothing is attached there"
            ) from None
        sim = self.sim
        obs = sim.obs
        if obs is not None:
            if obs is not self._monitored_by:
                self._monitored_by = obs
                obs.monitor({"noc.packets_injected": "packets_injected",
                             "noc.packets_delivered": "packets_sent",
                             "noc.packets_dropped": "packets_lost",
                             "noc.payload_bytes": "bytes_injected"}, self)
            telemetry = obs.telemetry
            if telemetry is not None and sim.now >= telemetry.closes_at:
                telemetry.advance()
        size = packet.size_bytes
        path = self.paths[packet.source, packet.destination]
        # A network's links share its bandwidth: one wire time a packet.
        wire_cycles = -(-(size + PACKET_HEADER_BYTES)
                        // self.bytes_per_cycle) or 1
        completion = reserve_path(path, sim.now, self.hop_cycles, wire_cycles)
        # The fault verdict comes first: delivered-traffic counters and
        # the trace must record the packet's actual fate, not the
        # pre-fault plan.
        if (self.fault_plan is not None
                and self.fault_plan.judge(packet, sim.now, self)):
            # The packet burned its path reservations, then vanished;
            # the sender still observes the nominal completion time.
            if obs is not None:
                self._observe_packet(packet, len(path), wire_cycles,
                                     completion, "drop")
            self.packets_injected += 1
            self.bytes_injected += size
            self.packets_lost += 1
            return completion
        if obs is not None:
            self._observe_packet(packet, len(path), wire_cycles, completion,
                                 "deliver")
        self.packets_injected += 1
        self.bytes_injected += size
        self.packets_sent += 1
        self.bytes_sent += size
        sim.schedule(completion - sim.now, handler, packet)
        return completion

    def _observe_packet(self, packet: Packet, hops: int, wire_cycles: int,
                        completion: int, verdict: str) -> None:
        """Span for one packet about to be counted (observer installed)
        that crosses ``hops`` links, each for ``wire_cycles``.

        The packet's span adopts the trace context the sending DTU
        stamped on it, and the *contended* share of the wire time — the
        difference between the reserved completion and the uncontended
        completion on an idle path — is recorded as a nested
        ``noc-queue`` span, so critical paths can attribute cycles to
        NoC contention separately from raw transfer time.
        """
        obs = self.sim.obs
        now = self.sim.now
        span = obs.record(
            obs.kinds[packet.kind, "noc", _PACKET_SPAN_ARGS, (
                packet.destination, packet.size_bytes, verdict)],
            packet.source, now, completion, -1,
            packet.trace_id, packet.trace_parent,
        )
        # What an idle path would have taken: hop latency plus the
        # serialisation of header and payload.
        queued = completion - (now + hops * self.hop_cycles + wire_cycles)
        if queued > 0:
            obs.record(
                obs.kinds["queueing", "noc-queue", _QUEUE_SPAN_ARGS,
                          (packet.destination, queued)],
                packet.source, completion - queued, completion, -1,
                packet.trace_id, span,
            )

    # -- statistics ----------------------------------------------------------------

    def stats(self) -> dict:
        """The totals :meth:`M3System.stats` reports under ``noc.``."""
        return {"packets_lost": self.packets_lost}

    def utilization_report(self) -> dict[tuple[int, int], float]:
        """Exact per-link utilisation over the elapsed simulation time.

        Includes loopback links (``(n, n)``) for same-node transfers;
        only occupancy inside ``[0, now)`` counts, so values are exact
        and never clamped.
        """
        elapsed = self.sim.now
        return {
            key: link.utilization(elapsed)
            for key, link in self._links.items()
            if link.packets
        }
