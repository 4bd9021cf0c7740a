"""Seeded fault plans: deterministic packet loss and fail-stop PEs.

MGSim-style deterministic event injection for the M3 reproduction: a
:class:`FaultPlan` owns a seeded PRNG (never wall-clock — the engine is
deterministic, and so are fault schedules), a set of composable rules
that drop individual NoC packets, and the cycles at which whole cores
are killed.  Those are the two faults the experiments draw.  The plan
hooks into :meth:`repro.noc.network.Network.send` and into
:class:`repro.hw.pe.ProcessingElement`; with no plan installed the
network pays exactly one ``is None`` branch per packet, so all
calibrated figures stay cycle-identical.

Every injected fault is recorded in :attr:`FaultPlan.events` (its
cycle and action).
"""

from __future__ import annotations

import dataclasses
import random
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.platform import Platform
    from repro.noc.network import Network
    from repro.noc.packet import Packet
    from repro.sim import Simulator

#: the action recorded for a dropped packet.
DROP = "drop"

#: every packet kind the NoC carries; a rule naming anything else is a
#: typo that would silently never fire, so construction rejects it.
KNOWN_PACKET_KINDS = frozenset({
    "message",
    "reply",
    "msg_ack",
    "mem_read",
    "mem_write",
    "mem_resp",
    "ep_config",
    "config_ack",
})


@dataclasses.dataclass(frozen=True)
class FaultRecord:
    """One injected fault, as recorded in :attr:`FaultPlan.events`."""

    cycle: int
    action: str  # drop | kill


@dataclasses.dataclass(frozen=True)
class PacketRule:
    """A rate-based packet drop, optionally windowed and targeted.

    ``rate`` is the per-matching-packet probability of firing.  The
    filters compose: a packet must match *all* given filters for the
    rule to draw from the PRNG at all (non-matching packets consume no
    randomness, which keeps unrelated traffic schedules independent).
    """

    rate: float
    #: restrict to these packet kinds (None = all kinds).
    kinds: frozenset | None = None
    #: restrict to packets injected at / destined to one node.
    source: int | None = None
    destination: int | None = None
    #: restrict to packets whose XY path crosses this directed link.
    link: tuple | None = None
    #: half-open cycle window [start, end) in which the rule is armed.
    window: tuple | None = None

    def matches(self, packet: "Packet", now: int, network: "Network") -> bool:
        if self.window is not None and not (self.window[0] <= now < self.window[1]):
            return False
        if self.kinds is not None and packet.kind not in self.kinds:
            return False
        if self.source is not None and packet.source != self.source:
            return False
        if self.destination is not None and packet.destination != self.destination:
            return False
        if self.link is not None:
            if packet.source == packet.destination:
                return False
            path = network.paths[packet.source, packet.destination]
            if tuple(self.link) not in [(hop.source, hop.destination)
                                        for hop in path]:
                return False
        return True


@dataclasses.dataclass(frozen=True)
class NodeFault:
    """A fail-stop PE: the core at ``node`` halts at cycle ``at``."""

    node: int
    at: int


class FaultPlan:
    """A deterministic, seeded schedule of packet drops and PE kills.

    Build a plan with :meth:`drop` and :meth:`kill_pe`, then
    :meth:`install` it on a :class:`~repro.hw.platform.Platform` (drops
    + kills) or a bare :class:`~repro.noc.network.Network` (drops
    only).  The same seed over the same simulation produces the same
    fault schedule, packet for packet.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.packet_rules: list[PacketRule] = []
        self.node_faults: list[NodeFault] = []
        #: every injected fault, in injection order.
        self.events: list[FaultRecord] = []
        self.sim: "Simulator | None" = None

    # -- rule construction (fluent) -------------------------------------

    def drop(self, rate: float, **filters) -> "FaultPlan":
        """Drop matching packets with probability ``rate``; the filters
        are :class:`PacketRule`'s ``kinds``, ``source``, ``destination``,
        ``link`` and ``window``."""
        return self._rule(rate, **filters)

    def _rule(self, rate: float, kinds=None, source=None, destination=None,
              link=None, window=None) -> "FaultPlan":
        if not (0.0 <= rate <= 1.0):
            raise ValueError(f"rate must be a probability, got {rate}")
        if kinds is not None:
            unknown = sorted(set(kinds) - KNOWN_PACKET_KINDS)
            if unknown:
                raise ValueError(
                    f"unknown packet kind(s) {unknown}; valid kinds are "
                    f"{sorted(KNOWN_PACKET_KINDS)}"
                )
        if window is not None:
            start, end = window
            if start < 0 or end < start:
                raise ValueError(
                    f"bad fault window {tuple(window)}: need 0 <= start <= end"
                )
        for label, node in (("source", source), ("destination", destination)):
            if node is not None and node < 0:
                raise ValueError(f"{label} node must be >= 0, got {node}")
        if link is not None:
            if len(tuple(link)) != 2 or any(n < 0 for n in link):
                raise ValueError(
                    f"link must be a (src, dst) pair of node ids, got {link!r}"
                )
        self.packet_rules.append(
            PacketRule(
                rate=rate,
                kinds=frozenset(kinds) if kinds is not None else None,
                source=source,
                destination=destination,
                link=tuple(link) if link is not None else None,
                window=tuple(window) if window is not None else None,
            )
        )
        return self

    def kill_pe(self, node: int, at: int) -> "FaultPlan":
        """Halt the core at ``node`` at cycle ``at``.

        The *core* dies; the DTU survives — it is separate hardware, and
        the kernel keeps its remote-configuration grip on the node
        (which is exactly what makes kernel-driven recovery possible).
        """
        if at < 0:
            raise ValueError(f"kill cycle must be >= 0, got {at}")
        self.node_faults.append(NodeFault(node, at))
        return self

    # -- installation ----------------------------------------------------

    def install(self, target) -> "FaultPlan":
        """Hook the plan into a Platform (or bare Network) and schedule
        the kills.  Returns self."""
        from repro.hw.platform import Platform

        if isinstance(target, Platform):
            network, platform = target.network, target
        else:
            network, platform = target, None
        if network.fault_plan is not None:
            raise RuntimeError("network already has a fault plan installed")
        # Validate every target against the actual topology now, so a
        # plan naming a nonexistent PE or link fails loudly at install
        # time instead of silently never firing.
        for fault in self.node_faults:
            if platform is None:
                raise ValueError("PE faults need a Platform, not a bare Network")
            platform.pe(fault.node)  # raises ValueError on a bad node
        for rule in self.packet_rules:
            for node in (rule.source, rule.destination):
                if node is not None:
                    network.topology._check(node)
            if rule.link is not None:
                network.link(*rule.link)  # raises ValueError on a bad link
        self.sim = network.sim
        network.fault_plan = self
        for fault in self.node_faults:
            self._schedule_kill(platform, fault)
        return self

    def _schedule_kill(self, platform: "Platform", fault: NodeFault) -> None:
        pe = platform.pe(fault.node)

        def kill(_):
            self._record(fault.at, "kill")
            pe.fail(cause=f"fault-plan kill at cycle {fault.at}")

        self.sim.schedule(max(0, fault.at - self.sim.now), kill)

    # -- the per-packet decision ------------------------------------------

    def judge(self, packet: "Packet", now: int, network: "Network") -> bool:
        """Whether this packet is dropped.  Called once per packet from
        :meth:`Network.send`, which keeps the PRNG consumption order
        deterministic: each matching rule draws once, in rule order,
        until one fires."""
        for rule in self.packet_rules:
            if rule.matches(packet, now, network) and self.rng.random() < rule.rate:
                self._record(now, DROP)
                return True
        return False

    def _record(self, cycle: int, action: str) -> None:
        self.events.append(FaultRecord(cycle, action))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<FaultPlan seed={self.seed} rules={len(self.packet_rules)} "
                f"node_faults={len(self.node_faults)} "
                f"injected={len(self.events)}>")
