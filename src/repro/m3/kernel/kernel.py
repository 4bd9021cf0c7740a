"""The M3 kernel: boot, NoC-level isolation, and syscall dispatch.

The kernel runs on a dedicated PE and never shares it with
applications.  Its power comes solely from its privileged DTU: it
downgrades all application DTUs at boot and afterwards remotely
configures their endpoints (Section 3).

This module keeps boot, the VPE lifecycle (with the handlers that
create VPEs, memory and gates), and the dispatch loop with its two
opcode tables.  The rest are components built in ``Kernel.__init__``,
each owning its state: ``sessions`` (service registry and session
negotiation), ``capexchange`` (activation, delegation, revocation),
``ikrpc`` (inter-kernel RPC), ``routing`` (session router), ``failover``
(watchdog, heartbeats, domain failover), ``migration`` and ``ctxsw``.
"""

from __future__ import annotations

import functools
import itertools
import operator
import typing

from repro import params
from repro.dtu.dtu import DtuError
from repro.dtu.message import HEADER_BYTES
from repro.dtu.registers import EndpointRegisters, MemoryPerm
from repro.m3.kernel import syscalls
from repro.m3.kernel.capability import Capability, CapKind
from repro.m3.kernel.capexchange import CapExchange
from repro.m3.kernel.ctxsw import ContextSwitcher
from repro.m3.kernel.failover import Failover
from repro.m3.kernel.ikrpc import (
    IK_RING_SLOTS,
    IK_SEND_CREDITS,
    IK_SLOT_BYTES,
    KERNEL_IK_EP,
    IkTransport,
)
from repro.m3.kernel.memmgr import MemoryManager
from repro.m3.kernel.migration import Migration
from repro.m3.kernel.objects import (
    MemObject,
    RecvGateObject,
    RemoteVpeObject,
    SendGateObject,
)
from repro.m3.kernel.routing import SessionRouter
from repro.m3.kernel.sessions import Sessions
from repro.m3.kernel.syscalls import (
    APP_REPLY_EP,
    APP_SYSCALL_EP,
    NO_REPLY,
    SYSCALL_MSG_BYTES,
    SyscallError,
)
from repro.m3.kernel.vpe import VpeObject, VpeState
from repro.obs.causal import header_context
from repro.sim.events import first_of
from repro.sim.ledger import Tag

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.platform import Platform

#: kernel endpoint assignment.
KERNEL_SYSCALL_EP = 0  # receive endpoint for all syscalls
KERNEL_REPLY_EP = 1  # receive endpoint for replies to kernel-sent messages
#: a single kernel's send endpoints to services follow KERNEL_REPLY_EP.
#: multi-kernel layout only: requests from peer kernels arrive on
#: ``KERNEL_IK_EP`` (= 2, see ikrpc) and peer send endpoints follow;
#: services then get the endpoints after the last peer (``Sessions``
#: hands out the lowest one nothing is configured on).  A single
#: kernel keeps the layout above unchanged.
KERNEL_FIRST_PEER_EP = 3

#: syscall channel geometry (the message size is part of the ABI).
SYSCALL_RING_SLOTS = 64
#: reply ring slots are large enough for service replies too (services
#: answer clients through the same standard reply endpoint).
REPLY_SLOT_BYTES = 512
REPLY_RING_SLOTS = 8
#: the kernel's own reply ring must absorb a burst of session
#: negotiations (up to one per parked open_session).
KERNEL_REPLY_RING_SLOTS = 64

#: Observer counter -> the kernel total it samples, added up over the
#: kernels (docs/observability.md, "Sampled counters"); each kernel's
#: own ``kernel<id>.ik_retries`` samples :data:`OBSERVED_RETRIES`.
OBSERVED_TOTALS = {
    "kernel.probes_sent": "failover.probes_sent",
    "kernel.recoveries": "failover.recoveries",
    "kernel.migrations": "migration.migrations",
    "kernel.migrations_out": "migration.migrations_out",
    "kernel.migrations_in": "migration.migrations_in",
}
OBSERVED_RETRIES = "ik.retries"


class Kernel:
    """Kernel state plus the dispatch loop running on the kernel PE."""

    def __init__(self, platform: "Platform", node: int, kernel_id: int,
                 domain, dram_base: int, dram_bytes: int):
        self.platform = platform
        self.sim = platform.sim
        self.node = node
        self.pe = platform.pe(node)
        self.dtu = self.pe.dtu
        #: this kernel's id and the set of PE nodes it owns (a lone
        #: kernel owns the whole mesh).
        self.kernel_id = kernel_id
        self.domain = set(domain)
        #: process-name stem; :meth:`set_peers` makes it ``kernel<d>``.
        self.label = "kernel"
        #: VPE id -> kernel object.
        self.vpes: dict[int, VpeObject] = {}
        #: DRAM allocator for this kernel's shard
        #: ``[dram_base, dram_base + dram_bytes)``.
        self.memory = MemoryManager(dram_base, dram_bytes)
        #: the membership view the components share: peer kernel id ->
        #: send-EP index on this DTU (filled by :meth:`set_peers`), and
        #: the peers declared dead (written by :class:`Failover` only).
        self.peers: dict[int, int] = {}
        self._peer_nodes: dict[int, int] = {}
        self.dead_peers: set[int] = set()
        self.syscall_count = 0
        #: labels of the replies arriving on ``KERNEL_REPLY_EP``:
        #: session negotiations and inter-kernel calls draw from one
        #: counter, so a label says which of the two it answers.
        negotiation_ids = itertools.count(1)
        #: per-kernel VPE ids, so runs are reproducible regardless of
        #: what else the hosting Python process simulated before.
        self._vpe_ids = itertools.count(1)
        #: callbacks used by the M3 system layer to start software on a
        #: PE (models the kernel writing the boot registers via the DTU)
        #: and to look up the program an exec names.
        self.start_software = None
        self.load_program = None
        #: PE time-multiplexing (Sections 3.3/7); off by default, like
        #: the paper's prototype.
        self.multiplexing = False
        #: vpe id -> libm3 Env, populated by the system layer (used by
        #: the context switcher to flush client-side endpoint bindings).
        self.envs: dict[int, object] = {}
        # The components; each owns the state named in its module.
        self.ctxsw = ContextSwitcher(self)
        self.sessions = Sessions(self.sim, self.dtu, negotiation_ids,
                                 self.reply)
        #: registered services by name (a read-only view).
        self.services = self.sessions.services
        self.router = SessionRouter(
            kernel_id, self.peers, self.dead_peers, self.services,
            self.sessions.depth,
        )
        self.ik = IkTransport(
            self.sim, self.pe, kernel_id, self.peers, self.dead_peers,
            self.router, KERNEL_REPLY_EP, negotiation_ids,
        )
        # The one cycle among the components: the router balances over
        # the registry, the transport gossips the router's depths, and
        # the registry reaches peer domains through the transport.
        self.sessions.router, self.sessions.ik = self.router, self.ik
        self.caps = CapExchange(
            self.sim, self.dtu, self.ik, self.vpes, self.memory,
            platform.dram_node, self.reply, self.reset_vpe,
        )
        self.sessions.caps = self.caps
        self.failover = Failover(self)
        self.migration = Migration(self)
        #: opcode -> handler generator: ``(vpe, slot, *args)`` for
        #: syscalls, ``(slot, sender kernel id, *args)`` for peer ops.
        self.syscall_table = {
            syscalls.CREATE_VPE: self._sys_create_vpe,
            syscalls.VPE_START: self._sys_vpe_start,
            syscalls.VPE_WAIT: self._sys_vpe_wait,
            syscalls.VPE_WAIT_YIELD: self._sys_vpe_wait_yield,
            syscalls.MIGRATE_VPE: self.migration.sys_migrate_vpe,
            syscalls.EXIT: self._sys_exit,
            syscalls.NOOP: self._sys_noop,
            syscalls.REQUEST_MEM: self._sys_request_mem,
            syscalls.DERIVE_MEM: self._sys_derive_mem,
            syscalls.CREATE_RGATE: self._sys_create_rgate,
            syscalls.CREATE_SGATE: self._sys_create_sgate,
            syscalls.ACTIVATE: self.caps.activate,
            syscalls.DELEGATE: self.caps.delegate,
            syscalls.REVOKE: self.caps.revoke,
            syscalls.CREATE_SRV: self.sessions.create_srv,
            syscalls.OPEN_SESSION: self.sessions.open_session,
            syscalls.SRV_DELEGATE: self.caps.srv_delegate,
        }
        self.peer_ops = {
            "srv_open": self.sessions.serve_srv_open,
            "srv_gone": self.sessions.serve_srv_gone,
            "delegate_mem": self.caps.serve_delegate_mem,
            "create_vpe": self._serve_create_vpe,
            "vpe_start": self._serve_vpe_start,
            "vpe_wait": self._serve_vpe_wait,
            "vpe_revoke": self._serve_vpe_revoke,
            "migrate_in": self.migration.serve_migrate_in,
            "heartbeat": self.failover.serve_heartbeat,
            "peer_down": self.failover.serve_peer_down,
        }

    # Component counters ``benchmarks/hostperf`` reads as
    # ``kernel.<name>``; everything else reads the owning component or
    # :meth:`stats`.
    ik_requests_sent = property(operator.attrgetter("ik.requests_sent"))
    ik_retries = property(operator.attrgetter("ik.retries"))
    heartbeats_sent = property(operator.attrgetter("failover.heartbeats_sent"))
    migrations = property(operator.attrgetter("migration.migrations"))
    migrations_out = property(operator.attrgetter("migration.migrations_out"))

    def stats(self) -> dict:
        """This kernel's totals, named by the component that keeps
        them (``ik.timeouts``, ``router.<replica>``, ...)."""
        ik, failover, migration = self.ik, self.failover, self.migration
        stats = {
            "ik.requests_sent": ik.requests_sent,
            "ik.retries": ik.retries,
            "ik.timeouts": ik.timeouts,
            "ik.duplicates": ik.duplicates,
            "failover.probes_sent": failover.probes_sent,
            "failover.recoveries": failover.recoveries,
            "failover.heartbeats_sent": failover.heartbeats_sent,
            "migration.migrations": migration.migrations,
            "migration.migrations_out": migration.migrations_out,
            "migration.migrations_in": migration.migrations_in,
            "ctxsw.switches": self.ctxsw.switch_count,
        }
        for replica, count in self.router.route_counts.items():
            stats[f"router.{replica}"] = count
        return stats

    # ------------------------------------------------------------------
    # Boot
    # ------------------------------------------------------------------

    def set_peers(self, peer_nodes: dict,
                  peer_domains: dict | None = None) -> None:
        """Declare the other kernels (id -> node) before :meth:`boot`.

        Assigns one send endpoint per peer (after the inter-kernel
        receive endpoint) and moves the first service endpoint behind
        them.  Never called for a single-kernel system, whose endpoint
        layout is unchanged.  ``peer_domains`` (id -> node set) tells
        failover which PEs to quarantine when a peer dies.  A kernel
        with peers is labelled by its domain, ``kernel<d>``.
        """
        self.label = f"kernel{self.kernel_id}"
        self._peer_nodes = dict(peer_nodes)
        self.failover.peer_domains = {
            peer: set(nodes) for peer, nodes in (peer_domains or {}).items()
        }
        self.peers.clear()  # in place: the components share this dict
        ep_index = KERNEL_FIRST_PEER_EP
        for peer_id in sorted(self._peer_nodes):
            self.peers[peer_id] = ep_index
            ep_index += 1
        if ep_index > len(self.dtu.eps):
            raise ValueError(
                f"{len(self._peer_nodes)} peer kernels do not fit "
                f"{len(self.dtu.eps)} DTU endpoints"
            )

    def boot(self):
        """Generator: take control of the chip.

        Configures the kernel's own endpoints, then downgrades every
        other DTU — "during boot, the DTUs of the application PEs are
        downgraded by the kernel to become unprivileged" (Section 3).
        """
        rings = [
            (KERNEL_SYSCALL_EP, SYSCALL_MSG_BYTES + HEADER_BYTES,
             SYSCALL_RING_SLOTS),
            (KERNEL_REPLY_EP, REPLY_SLOT_BYTES, KERNEL_REPLY_RING_SLOTS),
        ]
        if self.peers:
            rings.append((KERNEL_IK_EP, IK_SLOT_BYTES, IK_RING_SLOTS))
        for ep_index, slot_size, slot_count in rings:
            self.dtu.configure_local(
                "configure",
                ep_index,
                EndpointRegisters.receive_config(
                    buffer_addr=4096 * ep_index,
                    slot_size=slot_size,
                    slot_count=slot_count,
                ),
            )
        for peer_id, ep_index in self.peers.items():
            self.dtu.configure_local(
                "configure",
                ep_index,
                EndpointRegisters.send_config(
                    target_node=self._peer_nodes[peer_id],
                    target_ep=KERNEL_IK_EP,
                    label=self.kernel_id,
                    credits=IK_SEND_CREDITS,
                    msg_size=IK_SLOT_BYTES,
                ),
            )
        for pe in self.platform.pes:
            if pe.node == self.node:
                continue
            if pe.node not in self.domain:
                continue  # a peer kernel downgrades its own domain
            yield from self.dtu.configure_remote(pe.node, "downgrade")

    # ------------------------------------------------------------------
    # VPE management (also used directly for boot-time root VPEs)
    # ------------------------------------------------------------------

    def find_free_pe(self, pe_type: str | None = None):
        """A free PE of this kernel's domain to place a VPE on, or
        ``None`` (the kernel's own PE is never shared)."""
        pe = self.platform.find_free_pe(pe_type, nodes=self.domain)
        return None if pe is None or pe.node == self.node else pe

    def new_vpe(self, name: str, pe) -> VpeObject:
        """A VPE of this kernel on ``pe``, under the next id of its
        namespace."""
        vpe = VpeObject(name, pe, next(self._vpe_ids))
        vpe.kernel = self
        self.vpes[vpe.id] = vpe
        return vpe

    def create_vpe(self, name: str, pe_type: str | None = None,
                   creator: VpeObject | None = None):
        """Generator: allocate a PE, create the VPE, wire its syscall
        channel.  Returns the :class:`VpeObject`.

        With :attr:`multiplexing` enabled and no free PE, the VPE is
        queued on a time-shared PE instead (general-purpose cores only;
        no endpoint wiring yet — that happens at switch-in); the
        creator's PE is the preferred victim.
        """
        pe = self.find_free_pe(pe_type)
        if pe is not None:
            vpe = self.new_vpe(name, pe)
            # Reserve the PE immediately so concurrent creates cannot race.
            pe.reserve()
            yield from self.wire_syscall_channel(vpe)
            self.ctxsw.adopt(vpe)
            loader = MemObject(pe.node, 0, pe.spm_data.size, MemoryPerm.RW)
        else:
            vpe = None
            if self.multiplexing and pe_type in (None, "xtensa"):
                vpe = self.ctxsw.place(
                    name, None if creator is None else creator.node
                )
            if vpe is None:
                raise SyscallError(
                    f"no free PE of type {pe_type or 'any'} for VPE {name!r}"
                )
            # The loader capability targets the DRAM staging area, not
            # the (occupied) SPM.
            loader = MemObject(self.platform.dram_node, vpe.staging_addr,
                               vpe.pe.spm_data.size, MemoryPerm.RW)
        # Self capability and a memory capability for the parent to
        # load the application through (Section 4.5.5).
        vpe.captable.insert(Capability(CapKind.VPE, vpe))
        vpe.captable.insert(Capability(CapKind.MEM, loader))
        return vpe

    def wire_syscall_channel(self, vpe: VpeObject):
        """Generator: configure the standard endpoints of a VPE's DTU
        (reply ringbuffer + send gate to the kernel)."""
        yield from self.dtu.configure_remote(
            vpe.node,
            "configure",
            APP_REPLY_EP,
            EndpointRegisters.receive_config(
                buffer_addr=0,
                slot_size=REPLY_SLOT_BYTES,
                slot_count=REPLY_RING_SLOTS,
            ),
        )
        yield from self.wire_syscall_ep(vpe)

    def wire_syscall_ep(self, vpe: VpeObject):
        """Generator: point the VPE's syscall send endpoint at this
        kernel.  The label is the VPE id, chosen by the kernel and
        unforgeable by the application."""
        yield from self.dtu.configure_remote(
            vpe.node,
            "configure",
            APP_SYSCALL_EP,
            EndpointRegisters.send_config(
                target_node=self.node,
                target_ep=KERNEL_SYSCALL_EP,
                label=vpe.id,
                credits=2,
                msg_size=SYSCALL_MSG_BYTES + HEADER_BYTES,
            ),
        )

    def start_vpe(self, vpe: VpeObject, entry, args: tuple) -> None:
        """Start software on the VPE's PE (the M3 system layer provides
        the actual loader hooks).  An exec's program is looked up first,
        so a refused one leaves a queued VPE as it was."""
        if vpe.state == VpeState.DEAD:
            raise SyscallError(f"VPE {vpe.name!r} is dead")
        if self.start_software is None:
            raise RuntimeError("kernel has no software loader attached")
        if isinstance(entry, tuple):  # ("program", name), from VPE.exec
            entry = self.load_program(entry[1])  # may refuse the name
        if not vpe.resident:
            # A queued multiplexed VPE runs when it gets the PE.
            self.ctxsw.start_queued(vpe, entry, args)
            return
        self.start_software(vpe, entry, args)
        vpe.state = VpeState.RUNNING

    def vpe_exited(self, vpe: VpeObject, exit_code: object) -> None:
        """Mark a VPE dead, free its PE, take its services out of the
        registry, and answer every wait on its exit — the one funnel for
        exit, revoke-reset, watchdog recovery and scale-down, and the
        only place such a wait is answered: with the exit code, or with
        an error for a VPE the watchdog failed."""
        vpe.state = VpeState.DEAD
        vpe.exit_code = exit_code
        vpe.pe.release()
        self.sessions.unregister(vpe)
        verdict = (("err", f"VPE {vpe.name!r} failed: {exit_code[1]}")
                   if vpe.failed else ("ok", exit_code))
        answers, vpe.exit_waiters = vpe.exit_waiters, []
        self.ctxsw.vpe_gone(vpe)
        for answer in answers:
            answer(verdict)

    def wipe_node(self, node: int):
        """Generator: wipe a node's DTU endpoints — NoC-level fencing
        of state that must no longer be reachable."""
        try:
            yield from self.dtu.configure_remote(node, "wipe")
        except DtuError:
            pass  # node unreachable: fenced by the NoC instead

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------

    def run(self):
        """Generator: the kernel main loop (runs forever on the kernel PE).

        The loop is strictly event-driven and never blocks on a single
        peer: it serves syscall messages *and* service replies (session
        negotiations, Section 4.5.3), so a service doing a syscall while
        the kernel negotiates with it cannot deadlock the system.  The
        kernel is booted first (:meth:`boot`).
        """
        inboxes = [(KERNEL_SYSCALL_EP, self._handle_syscall),
                   (KERNEL_REPLY_EP, self._handle_reply)]
        if self.peers:
            inboxes.append((KERNEL_IK_EP, self._handle_peer_request))
        while True:
            progressed = False
            for ep_index, handle in inboxes:
                fetched = self.dtu.fetch_message(ep_index)
                if fetched is not None:
                    yield from handle(*fetched)
                    progressed = True
            if not progressed:
                yield first_of(self.sim, *(
                    self.dtu.signal(ep_index).wait()
                    for ep_index, _handle in inboxes
                ))

    def _dispatch(self, table: dict, kind: str, opcode, *args):
        """Generator: run ``opcode``'s handler from ``table``.  Returns
        the reply payload (``("err", text)`` for failures the requester
        caused) or ``NO_REPLY`` when the handler took over the slot."""
        handler = table.get(opcode)
        try:
            if handler is None:
                raise SyscallError(f"unknown {kind} {opcode!r}")
            result = yield from handler(*args)
        except (SyscallError, KeyError, ValueError, TypeError) as exc:
            return ("err", str(exc))
        return NO_REPLY if result is NO_REPLY else ("ok", result)

    def _handle_syscall(self, slot: int, message):
        """Generator: dispatch one syscall message and reply."""
        self.syscall_count += 1
        obs = self.sim.obs
        started = self.sim.now
        vpe = self.vpes.get(message.label)
        # The opcode is parsed up front (a pure read) so the kernel
        # span carries it from the start; the span adopts the client's
        # trace context from the message header, linking the kernel's
        # work — and every send/config it performs — to the request.
        opcode, args = message.payload
        span = -1
        if obs is not None:
            if self.peers:
                obs.count(f"kernel{self.kernel_id}.syscalls")
            span = obs.begin(
                opcode, "syscall", self.node,
                parent=header_context(message.header),
                vpe=-1 if vpe is None else vpe.id,
            )
        yield self.sim.delay(params.M3_KERNEL_DISPATCH_CYCLES, tag=Tag.OS)
        if vpe is None:
            self.dtu.ack_message(KERNEL_SYSCALL_EP, slot)
            if obs is not None:
                obs.end(span, status="no-vpe")
            return
        reply = yield from self._dispatch(
            self.syscall_table, "syscall", opcode, vpe, slot, *args
        )
        if reply is NO_REPLY:
            if obs is not None:
                obs.observe("kernel.syscall_cycles", self.sim.now - started)
                obs.end(span, phase="deferred")
            return
        yield self.sim.delay(params.M3_KERNEL_REPLY_CYCLES, tag=Tag.OS)
        yield self.dtu.reply(KERNEL_SYSCALL_EP, slot, reply, SYSCALL_MSG_BYTES)
        if obs is not None:
            obs.observe("kernel.syscall_cycles", self.sim.now - started)
            obs.end(span, status=reply[0])

    def _handle_peer_request(self, slot: int, message):
        """Generator: serve one request from a peer kernel (the message
        label is the sender's kernel id, fixed by its send gate)."""
        admitted = self.ik.admit(slot, message)
        if admitted is None:
            return  # a retransmitted copy; the transport dealt with it
        operation, args = admitted
        obs = self.sim.obs
        span = -1
        if obs is not None:
            # Served as a child of the peer's request message: spans for
            # cross-domain work land in the originating request's tree.
            span = obs.begin(operation, "ik", self.node,
                             parent=header_context(message.header),
                             peer=message.label)
        yield self.sim.delay(params.M3_KERNEL_DISPATCH_CYCLES, tag=Tag.OS)
        reply = yield from self._dispatch(
            self.peer_ops, "inter-kernel op", operation,
            slot, message.label, *args
        )
        if reply is NO_REPLY:
            if obs is not None:
                obs.end(span, phase="deferred")
            return
        self.ik.reply(slot, reply)
        if obs is not None:
            obs.end(span, status=reply[0])

    def _handle_reply(self, slot: int, message):
        """Generator: a reply to something this kernel sent — a
        service's answer to a session negotiation, or a peer's to an
        inter-kernel call: run what was parked under the reply's label."""
        self.dtu.ack_message(KERNEL_REPLY_EP, slot)
        continuation = self.ik.complete(message.label)
        parked = (("ik_reply", "ik", continuation) if continuation is not None
                  else self.sessions.complete(message.label))
        if parked is None:
            return  # a late copy of an answer already consumed
        name, category, continuation = parked
        # The continuation runs as a child of the reply message, so a
        # cross-domain hop stays on the request's causal chain.
        obs = self.sim.obs
        span = -1
        if obs is not None:
            span = obs.begin(name, category, self.node,
                             parent=header_context(message.header))
        yield self.sim.delay(params.M3_KERNEL_DISPATCH_CYCLES, tag=Tag.OS)
        try:
            continuation(message.payload)
        finally:
            if obs is not None:
                obs.end(span)

    def reply(self, vpe: VpeObject, slot: int, payload) -> None:
        """Late reply to a deferred syscall (fire-and-forget).

        The waiter may have *migrated* since it sent the syscall; the
        stored reply information is retargeted to its current node
        first (the kernel's bookkeeping of where each VPE lives).
        """
        self.dtu.ringbuffer(KERNEL_SYSCALL_EP).retarget_reply(
            slot, vpe.node, APP_REPLY_EP
        )
        self.sim.ledger.charge(Tag.OS, params.M3_KERNEL_REPLY_CYCLES)
        self.dtu.reply(KERNEL_SYSCALL_EP, slot, payload, SYSCALL_MSG_BYTES)

    # ------------------------------------------------------------------
    # Syscall handlers.  Each is a generator taking (vpe, slot, *args).
    # ------------------------------------------------------------------

    def _sys_noop(self, vpe, slot):
        return ()
        yield  # pragma: no cover - makes this a generator

    def _sys_create_vpe(self, vpe, slot, name, pe_type):
        try:
            child = yield from self.create_vpe(name, pe_type, creator=vpe)
        except SyscallError:
            if not self.peers:
                raise
            # Domain full: spill the VPE to a (live) peer kernel's domain.
            self._spill_create_vpe(vpe, slot, name, pe_type)
            return NO_REPLY
        # Give the *parent* a capability for the child VPE and its SPM.
        child_vpe_cap = child.captable.get(0)
        child_spm_cap = child.captable.get(1)
        vpe_sel = vpe.captable.insert(child_vpe_cap.derive())
        spm_sel = vpe.captable.insert(child_spm_cap.derive())
        return (vpe_sel, spm_sel, child.id)

    def _spill_create_vpe(self, vpe, slot, name, pe_type) -> None:
        """Ask the live peer kernels (in id order) to host a VPE this
        domain has no free PE for; the parent holds the child through a
        :class:`RemoteVpeObject` capability."""

        def hosted(peer, detail):
            child_id, node, spm_size = detail
            child = RemoteVpeObject(remote_id=child_id, kernel_id=peer,
                                    name=name, node=node)
            vpe_sel = vpe.captable.insert(Capability(CapKind.VPE, child))
            spm = MemObject(node, 0, spm_size, MemoryPerm.RW)
            spm_sel = vpe.captable.insert(
                Capability(CapKind.MEM, spm, foreign=True)
            )
            self.reply(vpe, slot, ("ok", (vpe_sel, spm_sel, child_id)))

        self.ik.request_first(
            self.ik.live_peers(), "create_vpe", (name, pe_type), hosted,
            lambda: self.reply(vpe, slot, (
                "err",
                f"no free PE of type {pe_type or 'any'} for VPE {name!r}",
            )),
        )

    def _sys_vpe_start(self, vpe, slot, vpe_sel, entry, args):
        child = vpe.captable.get(vpe_sel, CapKind.VPE).obj
        if isinstance(child, RemoteVpeObject):

            def completion(payload):
                if payload[0] == "ok":
                    child.state = VpeState.RUNNING
                self.reply(vpe, slot, payload)

            self.ik.request(child.kernel_id, "vpe_start",
                            (child.remote_id, entry, tuple(args)),
                            completion)
            return NO_REPLY
        self.start_vpe(child, entry, tuple(args))
        return ()
        yield  # pragma: no cover

    def _sys_vpe_wait(self, vpe, slot, vpe_sel):
        child = vpe.captable.get(vpe_sel, CapKind.VPE).obj
        if child.state == VpeState.DEAD:
            return child.exit_code
        answer = functools.partial(self.reply, vpe, slot)
        if isinstance(child, RemoteVpeObject):
            self.wait_remote(child, answer)
        else:
            child.exit_waiters.append(answer)
        return NO_REPLY
        yield  # pragma: no cover

    def wait_remote(self, proxy: RemoteVpeObject, reply) -> None:
        """Park a VPE_WAIT at the kernel that owns ``proxy``'s VPE;
        ``reply`` runs with the verdict once the proxy's cached state
        is in sync with it."""

        def completion(payload):
            proxy.state = VpeState.DEAD
            if payload[0] == "ok":
                proxy.exit_code = payload[1]
            else:
                # The VPE is gone or unreachable (killed remotely, or
                # its whole domain failed): the proxy must not stay
                # RUNNING forever, and local endpoints built from the
                # foreign memory grants at its node are dead hardware
                # now.  (The regions belong to the peer's domain — the
                # foreign flag keeps them out of this kernel's
                # allocator — so cutting those endpoints is all.)
                proxy.exit_code = ("failed", payload[1])
                node = proxy.node
                self.sim.process(
                    self.caps.revoke_where(
                        lambda _holder, cap: cap.foreign
                        and cap.kind == CapKind.MEM and cap.obj.node == node
                    ),
                    f"{self.label}.revoke-foreign.n{node}",
                )
            reply(payload)

        self.ik.request(proxy.kernel_id, "vpe_wait", (proxy.remote_id,),
                        completion, no_timeout=True)

    def _sys_vpe_wait_yield(self, vpe, slot, vpe_sel):
        """Wait for a VPE *and* offer the caller's PE for reuse —
        Section 3.3's "inform the kernel about a potentially reusable
        core"."""
        child = vpe.captable.get(vpe_sel, CapKind.VPE).obj
        if not self.multiplexing or isinstance(child, RemoteVpeObject):
            # (A spilled child's PE belongs to the peer's domain: plain
            # cross-domain wait, nothing to yield locally.)
            return (yield from self._sys_vpe_wait(vpe, slot, vpe_sel))
        return (yield from self.ctxsw.wait_yield(vpe, slot, child))

    def _sys_exit(self, vpe, slot, exit_code):
        self.dtu.ack_message(KERNEL_SYSCALL_EP, slot)
        self.vpe_exited(vpe, exit_code)
        return NO_REPLY
        yield  # pragma: no cover

    def _sys_request_mem(self, vpe, slot, size, perm_value):
        address = self.memory.allocate(size)
        obj = MemObject(
            self.platform.dram_node, address, size, MemoryPerm(perm_value)
        )
        return vpe.captable.insert(Capability(CapKind.MEM, obj))
        yield  # pragma: no cover

    def _sys_derive_mem(self, vpe, slot, mem_sel, offset, size, perm_value):
        parent_cap = vpe.captable.get(mem_sel, CapKind.MEM)
        derived = parent_cap.obj.slice(offset, size, MemoryPerm(perm_value))
        return vpe.captable.insert(parent_cap.derive(derived))
        yield  # pragma: no cover

    def _sys_create_rgate(self, vpe, slot, slot_size, slot_count):
        obj = RecvGateObject(slot_size=slot_size, slot_count=slot_count)
        return vpe.captable.insert(Capability(CapKind.RECV, obj))
        yield  # pragma: no cover

    def _sys_create_sgate(self, vpe, slot, rgate_sel, label, credits):
        rgate_cap = vpe.captable.get(rgate_sel, CapKind.RECV)
        obj = SendGateObject(rgate_cap.obj, label, credits)
        return vpe.captable.insert(rgate_cap.derive(obj, kind=CapKind.SEND))
        yield  # pragma: no cover

    def reset_vpe(self, vpe: VpeObject, reason: str = "vpe-revoked",
                  exit_code: object = None) -> None:
        """"the owner of the VPE capability could revoke it to let the
        kernel reset the associated PE" (Section 4.5.5): stop the VPE's
        software and retire it."""
        if vpe.state == VpeState.DEAD:
            return
        occupant = vpe.pe.occupant
        if occupant is not None and occupant.alive:
            occupant.interrupt(reason)
        self.vpe_exited(vpe, exit_code)

    # ------------------------------------------------------------------
    # Inter-kernel operations: what this kernel does for its peers.
    # Each is a generator taking (slot, sender kernel id, *args).
    # ------------------------------------------------------------------

    def _serve_create_vpe(self, slot, sender, name, pe_type):
        """Host a VPE spilled from a peer kernel's full domain."""
        child = yield from self.create_vpe(name, pe_type)
        return (child.id, child.node, child.pe.spm_data.size)

    def _serve_vpe_start(self, slot, sender, vpe_id, entry, args):
        vpe = self.vpes.get(vpe_id)
        if vpe is None:
            return self.migration.forward(vpe_id, slot, "vpe_start",
                                          (entry, tuple(args)))
        self.start_vpe(vpe, entry, tuple(args))
        return ()
        yield  # pragma: no cover

    def _serve_vpe_wait(self, slot, sender, vpe_id):
        """Cross-domain VPE_WAIT: reply now if the VPE is dead, else
        park the request's answer until :meth:`vpe_exited` gives it the
        verdict."""
        vpe = self.vpes.get(vpe_id)
        if vpe is None:
            return self.migration.forward(vpe_id, slot, "vpe_wait", ())
        if vpe.state == VpeState.DEAD:
            return vpe.exit_code
        vpe.exit_waiters.append(self.ik.parked_answer(slot))
        return NO_REPLY
        yield  # pragma: no cover

    def _serve_vpe_revoke(self, slot, sender, vpe_id):
        """Best-effort kill of a spilled VPE whose capability was
        revoked in the owning domain (which ignores the verdict)."""
        vpe = self.vpes.get(vpe_id)
        if vpe is None:
            return self.migration.forward(vpe_id, slot, "vpe_revoke", ())
        self.reset_vpe(vpe)
        return ()
        yield  # pragma: no cover

