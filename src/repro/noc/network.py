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
from repro.noc.link import Link, forget_before, reserve_path
from repro.noc.packet import Packet
from repro.noc.routing import XYRouter
from repro.noc.topology import MeshTopology

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim import Simulator

#: Wire overhead per packet: routing/flow-control header flits.
PACKET_HEADER_BYTES = 16

#: Deliveries between two sweeps that let the links forget occupancy
#: nobody will read again (see :meth:`Network.send`).
FORGET_INTERVAL = 1024

#: Arg names of the per-packet span and of its queueing span.
_PACKET_SPAN_ARGS = ("destination", "bytes", "verdict")
_QUEUE_SPAN_ARGS = ("destination", "cycles")

DeliveryHandler = typing.Callable[[Packet], None]


class _PathTable(dict):
    """``(source, destination) -> tuple of Links``, resolved on first
    use: the topology is immutable, so a route never changes, and a
    hit costs the per-packet path one dict lookup and no call."""

    def __init__(self, router: XYRouter, links: dict):
        super().__init__()
        self._router = router
        self._links = links

    def __missing__(self, key: tuple[int, int]) -> tuple[Link, ...]:
        source, destination = key
        hops = (self._router.links_on_path(source, destination)
                or [(source, source)])
        path = self[key] = tuple(self._links[hop] for hop in hops)
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
        self.sim = sim
        self.topology = topology
        self.router = XYRouter(topology)
        self.hop_cycles = hop_cycles
        self.bytes_per_cycle = bytes_per_cycle
        self._links: dict[tuple[int, int], Link] = {
            (a, b): Link(a, b, bytes_per_cycle) for a, b in topology.links()
        }
        # Every node also gets a real loopback link, so same-node
        # transfers queue, count, and report like any other traffic.
        for node in range(topology.node_count):
            self._links[(node, node)] = Link(node, node, bytes_per_cycle)
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
        self.packets_corrupted = 0
        self.packets_delayed = 0
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

    # -- timing model ----------------------------------------------------------

    def delivery_time(self, packet: Packet) -> int:
        """Reserve the path now; return the absolute completion cycle."""
        return reserve_path(
            self.paths[packet.source, packet.destination], self.sim.now,
            self.hop_cycles, packet.size_bytes + PACKET_HEADER_BYTES,
        )

    # -- sending ----------------------------------------------------------------

    def send(self, packet: Packet) -> int:
        """Inject ``packet``; schedule delivery; return the completion cycle.

        Every :data:`FORGET_INTERVAL` deliveries the links drop the
        occupancy history that has no reader left: reports ask about
        ``[0, now)`` or later, and an installed observer about nothing
        before the first epoch it has not sampled yet.

        The counters move only after the observer has seen the packet:
        it samples them (``Observer.monitor``), and epochs that ended
        before this packet have to close without it.
        """
        try:
            handler = self._handlers[packet.destination]
        except KeyError:
            raise RuntimeError(
                f"packet to node {packet.destination} but nothing is attached there"
            ) from None
        sim = self.sim
        size = packet.size_bytes
        path = self.paths[packet.source, packet.destination]
        completion = reserve_path(path, sim.now, self.hop_cycles,
                                  size + PACKET_HEADER_BYTES)
        verdict = "deliver"
        if self.fault_plan is not None:
            # The fault verdict comes first: delivered-traffic counters
            # and the trace must record the packet's actual fate, not
            # the pre-fault plan.
            verdict, extra = self.fault_plan.judge(packet, sim.now, self)
            if verdict == "drop":
                # The packet burned its path reservations, then vanished;
                # the sender still observes the nominal completion time.
                if sim.obs is not None:
                    self._observe_packet(packet, len(path), completion,
                                         verdict)
                self.packets_injected += 1
                self.bytes_injected += size
                self.packets_lost += 1
                return completion
            # Set per transmission: a retransmitted copy is the same
            # object and crosses the links again, intact or not.
            packet.corrupted = verdict == "corrupt"
            if packet.corrupted:
                self.packets_corrupted += 1
            if extra:
                self.packets_delayed += 1
                completion += extra
        if sim.obs is not None:
            self._observe_packet(packet, len(path), completion, verdict)
        self.packets_injected += 1
        self.bytes_injected += size
        self.packets_sent += 1
        self.bytes_sent += size
        if not self.packets_sent % FORGET_INTERVAL:
            forget_before(
                self._links.values(),
                sim.now if sim.obs is None else sim.obs.links_sampled_to,
            )
        sim.schedule(completion - sim.now, handler, packet)
        return completion

    def _observe_packet(self, packet: Packet, hops: int, completion: int,
                        verdict: str) -> None:
        """Span for one packet about to be counted (observer installed)
        that crosses ``hops`` links.

        The four ``noc.*`` counters are not pushed from here: the
        observer monitors this network's own totals, and is asked to
        close the epochs that ended (``fold_at``) before they move.
        The packet's span adopts the trace context the sending DTU
        stamped on it, and the *contended* share of the wire time — the
        difference between the reserved completion and the uncontended
        completion on an idle path — is recorded as a nested
        ``noc-queue`` span, so critical paths can attribute cycles to
        NoC contention separately from raw transfer time.
        """
        obs = self.sim.obs
        now = self.sim.now
        if obs is not self._monitored_by:
            self._monitored_by = obs
            obs.monitor({"noc.packets_injected": "packets_injected",
                         "noc.packets_delivered": "packets_sent",
                         "noc.packets_dropped": "packets_lost",
                         "noc.payload_bytes": "bytes_injected"}, self)
        if now >= obs.fold_at:
            obs.sample_links(self)
        span = obs.record(
            obs.kinds[packet.kind, "noc", _PACKET_SPAN_ARGS, (
                packet.destination, packet.size_bytes, verdict)],
            packet.source, now, completion, -1,
            packet.trace_id, packet.trace_parent,
        )
        # What an idle path would have taken: hop latency plus the
        # serialisation of header and payload.
        wire_bytes = packet.size_bytes + PACKET_HEADER_BYTES
        serialization = max(-(-wire_bytes // self.bytes_per_cycle), 1)
        queued = completion - (now + hops * self.hop_cycles + serialization)
        if queued > 0:
            obs.record(
                obs.kinds["queueing", "noc-queue", _QUEUE_SPAN_ARGS,
                          (packet.destination, queued)],
                packet.source, completion - queued, completion, -1,
                packet.trace_id, span,
            )

    def transfer(self, packet: Packet, tag: str | None = None):
        """An event that triggers when ``packet`` has been delivered.

        ``tag`` charges the transfer latency to the time ledger (the
        paper's "Xfers" category).
        """
        completion = self.send(packet)
        return self.sim.delay(completion - self.sim.now, tag=tag)

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
