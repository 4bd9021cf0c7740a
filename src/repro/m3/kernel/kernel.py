"""The M3 kernel: boot, NoC-level isolation, and syscall dispatch.

The kernel runs on a dedicated PE and never shares it with
applications.  Its power comes solely from its privileged DTU: it
downgrades all application DTUs at boot and afterwards remotely
configures their endpoints (Section 3).

This module keeps boot, the VPE lifecycle, the capability/gate/session
handlers, and the dispatch loop with its two opcode tables.  The rest
are components built in ``Kernel.__init__``, each owning its state:
``ikrpc`` (inter-kernel RPC), ``routing`` (session router), ``failover``
(watchdog, heartbeats, domain failover), ``migration`` and ``ctxsw``.
"""

from __future__ import annotations

import itertools
import operator
import typing

from repro import params
from repro.dtu.dtu import DtuError
from repro.dtu.message import HEADER_BYTES
from repro.dtu.registers import EndpointRegisters, MemoryPerm
from repro.m3.kernel import syscalls
from repro.m3.kernel.capability import Capability, CapKind, revoke
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
    RemoteClientRef,
    RemoteGateStub,
    RemoteServiceRef,
    RemoteVpeObject,
    SendGateObject,
    ServiceObject,
    SessionObject,
)
from repro.m3.kernel.routing import SessionRouter
from repro.m3.kernel.syscalls import NO_REPLY, SyscallError
from repro.m3.kernel.vpe import VpeObject, VpeState
from repro.obs.causal import header_context
from repro.sim.events import first_of
from repro.sim.ledger import Tag

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.platform import Platform

#: kernel endpoint assignment.
KERNEL_SYSCALL_EP = 0  # receive endpoint for all syscalls
KERNEL_REPLY_EP = 1  # receive endpoint for replies to kernel-sent messages
KERNEL_FIRST_SRV_EP = 2  # send endpoints to services (single-kernel layout)
#: multi-kernel layout only: requests from peer kernels arrive on
#: ``KERNEL_IK_EP`` (= 2, see ikrpc) and peer send endpoints follow;
#: service endpoints then start after the last peer.  A single kernel
#: keeps the layout above unchanged.
KERNEL_FIRST_PEER_EP = 3

#: application endpoint assignment (mirrored by libm3's Env).
APP_SYSCALL_EP = 0  # send endpoint to the kernel
APP_REPLY_EP = 1  # receive endpoint for syscall and service replies

#: syscall channel geometry.
SYSCALL_MSG_BYTES = 64
SYSCALL_RING_SLOTS = 64
#: reply ring slots are large enough for service replies too (services
#: answer clients through the same standard reply endpoint).
REPLY_SLOT_BYTES = 512
REPLY_RING_SLOTS = 8
#: the kernel's own reply ring must absorb a burst of session
#: negotiations (up to one per parked open_session).
KERNEL_REPLY_RING_SLOTS = 64


class Kernel:
    """Kernel state plus the dispatch loop running on the kernel PE."""

    def __init__(self, platform: "Platform", node: int = 0,
                 dram_reserve: int = 0, kernel_id: int = 0,
                 domain=None, dram_base: int | None = None,
                 dram_bytes: int | None = None):
        self.platform = platform
        self.sim = platform.sim
        self.node = node
        self.pe = platform.pe(node)
        self.dtu = self.pe.dtu
        #: this kernel's id and the set of PE nodes it owns (``None``
        #: means the whole mesh — the classic single-kernel layout).
        self.kernel_id = kernel_id
        self.domain = set(domain) if domain is not None else None
        #: process-name stem: ``kernel<d>`` for partitioned kernels.
        self.label = "kernel" if domain is None else f"kernel{kernel_id}"
        #: VPE id -> kernel object.
        self.vpes: dict[int, VpeObject] = {}
        #: registered services by name.
        self.services: dict[str, ServiceObject] = {}
        #: DRAM allocator (`dram_reserve` bytes at the bottom stay free
        #: for platform-level uses); a partitioned kernel manages only
        #: its own shard ``[dram_base, dram_base + dram_bytes)``.
        if dram_base is None:
            dram_base = dram_reserve
            dram_bytes = platform.dram.memory.size - dram_reserve
        self.memory = MemoryManager(dram_base, dram_bytes)
        #: the membership view the components share: peer kernel id ->
        #: send-EP index on this DTU (filled by :meth:`set_peers`), and
        #: the peers declared dead (written by :class:`Failover` only).
        self.peers: dict[int, int] = {}
        self._peer_nodes: dict[int, int] = {}
        self.dead_peers: set[int] = set()
        #: service name -> owning peer kernel id (remote-lookup cache).
        self._remote_services: dict[str, int] = {}
        #: send-EP index on the kernel DTU per service name.
        self._service_eps: dict[str, int] = {}
        self._next_service_ep = KERNEL_FIRST_SRV_EP
        self.syscall_count = 0
        #: (vpe_id, ep_index) -> capability currently configured there,
        #: so revocation can invalidate the hardware behind a grant.
        self._ep_bindings: dict[tuple, Capability] = {}
        #: parked open_session negotiations keyed by negotiation id.
        #: Inter-kernel calls draw from the same counter: both kinds of
        #: reply arrive on ``KERNEL_REPLY_EP``, told apart by label.
        self._pending_sessions: dict[int, tuple] = {}
        self._negotiation_ids = itertools.count(1)
        #: per-kernel VPE ids, so runs are reproducible regardless of
        #: what else the hosting Python process simulated before.
        self._vpe_ids = itertools.count(1)
        self._booted = False
        #: callback used by the M3 system layer to start software on a
        #: PE (models the kernel writing the boot registers via the DTU).
        self.start_software = None
        #: PE time-multiplexing (Sections 3.3/7); off by default, like
        #: the paper's prototype.
        self.multiplexing = False
        #: move waiting VPEs to PEs that free up (Section 1.3's load
        #: balancing); only meaningful with multiplexing on.
        self.auto_rebalance = False
        #: vpe id -> libm3 Env, populated by the system layer (used by
        #: the context switcher to flush client-side endpoint bindings).
        self.envs: dict[int, object] = {}
        # The components; each owns the state named in its module.
        self.ctxsw = ContextSwitcher(self)
        self.router = SessionRouter(
            kernel_id, self.peers, self.dead_peers, self.services,
            self.local_depth,
        )
        self.ik = IkTransport(
            self.sim, self.pe, kernel_id, self.peers, self.dead_peers,
            self.router, KERNEL_REPLY_EP, self._negotiation_ids,
        )
        self.failover = Failover(self)
        self.migration = Migration(self)
        #: opcode -> handler generator: ``(vpe, slot, *args)`` for
        #: syscalls, ``(slot, sender kernel id, *args)`` for peer ops.
        self._syscalls = {
            syscalls.CREATE_VPE: self._sys_create_vpe,
            syscalls.VPE_START: self._sys_vpe_start,
            syscalls.VPE_WAIT: self._sys_vpe_wait,
            syscalls.VPE_WAIT_YIELD: self._sys_vpe_wait_yield,
            syscalls.VPE_MIGRATE: self._sys_vpe_migrate,
            syscalls.MIGRATE_VPE: self.migration.sys_migrate_vpe,
            syscalls.EXIT: self._sys_exit,
            syscalls.NOOP: self._sys_noop,
            syscalls.REQUEST_MEM: self._sys_request_mem,
            syscalls.DERIVE_MEM: self._sys_derive_mem,
            syscalls.CREATE_RGATE: self._sys_create_rgate,
            syscalls.CREATE_SGATE: self._sys_create_sgate,
            syscalls.ACTIVATE: self._sys_activate,
            syscalls.DELEGATE: self._sys_delegate,
            syscalls.REVOKE: self._sys_revoke,
            syscalls.CREATE_SRV: self._sys_create_srv,
            syscalls.OPEN_SESSION: self._sys_open_session,
            syscalls.SRV_DELEGATE: self._sys_srv_delegate,
        }
        self._peer_ops = {
            "srv_open": self._serve_srv_open,
            "delegate_mem": self._serve_delegate_mem,
            "create_vpe": self._serve_create_vpe,
            "vpe_start": self._serve_vpe_start,
            "vpe_wait": self._serve_vpe_wait,
            "vpe_revoke": self._serve_vpe_revoke,
            "migrate_in": self.migration.serve_migrate_in,
            "heartbeat": self.failover.serve_heartbeat,
            "peer_down": self.failover.serve_peer_down,
        }

    # The public read API: state owned by the components, readable as
    # ``kernel.<name>`` by evals, tests and the benchmark.
    ik_requests_sent = property(operator.attrgetter("ik.requests_sent"))
    ik_requests_served = property(operator.attrgetter("ik.requests_served"))
    ik_retries = property(operator.attrgetter("ik.retries"))
    ik_timeouts = property(operator.attrgetter("ik.timeouts"))
    ik_duplicates = property(operator.attrgetter("ik.duplicates"))
    ik_retry_log = property(operator.attrgetter("ik.retry_log"))
    route_counts = property(operator.attrgetter("router.route_counts"))
    replica_depths = property(operator.attrgetter("router.replica_depths"))
    probes_sent = property(operator.attrgetter("failover.probes_sent"))
    recoveries = property(operator.attrgetter("failover.recoveries"))
    heartbeats_sent = property(operator.attrgetter("failover.heartbeats_sent"))
    failover_log = property(operator.attrgetter("failover.failover_log"))
    failover_alerts = property(operator.attrgetter("failover.failover_alerts"))
    migrations = property(operator.attrgetter("migration.migrations"))
    migrations_out = property(operator.attrgetter("migration.migrations_out"))
    migrations_in = property(operator.attrgetter("migration.migrations_in"))

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
        failover which PEs to quarantine when a peer dies.
        """
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
        self._next_service_ep = ep_index

    def live_peers(self) -> list[int]:
        """Peer kernel ids not declared dead, in id order."""
        return [peer for peer in sorted(self.peers)
                if peer not in self.dead_peers]

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
            if self.domain is not None and pe.node not in self.domain:
                continue  # a peer kernel downgrades its own domain
            yield from self.dtu.configure_remote(pe.node, "downgrade")
        self._booted = True

    # ------------------------------------------------------------------
    # VPE management (also used directly for boot-time root VPEs)
    # ------------------------------------------------------------------

    def find_free_pe(self, pe_type: str | None = None):
        """A free PE of this kernel's domain to place a VPE on, or
        ``None`` (the kernel's own PE is never shared)."""
        pe = self.platform.find_free_pe(pe_type, nodes=self.domain)
        return None if pe is None or pe.node == self.node else pe

    def create_vpe(self, name: str, pe_type: str | None = None,
                   creator: VpeObject | None = None):
        """Generator: allocate a PE, create the VPE, wire its syscall
        channel.  Returns the :class:`VpeObject`.

        With :attr:`multiplexing` enabled and no free PE, the VPE is
        queued on a time-shared PE instead (general-purpose cores only);
        the creator's PE is the preferred victim.
        """
        pe = self.find_free_pe(pe_type)
        if pe is None:
            if self.multiplexing and pe_type in (None, "xtensa"):
                preferred = creator.node if creator is not None else None
                vpe = self._create_multiplexed(name, preferred)
                if vpe is not None:
                    return vpe
            raise SyscallError(
                f"no free PE of type {pe_type or 'any'} for VPE {name!r}"
            )
        vpe = VpeObject(name, pe, next(self._vpe_ids))
        vpe.kernel = self
        self.vpes[vpe.id] = vpe
        # Reserve the PE immediately so concurrent creates cannot race.
        pe.reserve()
        yield from self.wire_syscall_channel(vpe)
        # Self capability and a memory capability for the PE's SPM, used
        # by the parent for application loading (Section 4.5.5).
        vpe.captable.insert(Capability(CapKind.VPE, vpe))
        spm_cap = Capability(
            CapKind.MEM,
            MemObject(pe.node, 0, pe.spm_data.size, MemoryPerm.RW),
        )
        vpe.captable.insert(spm_cap)
        self.ctxsw.adopt(vpe)
        return vpe

    def _create_multiplexed(self, name: str,
                            preferred_node: int | None = None
                            ) -> VpeObject | None:
        """Queue a VPE on a time-shared PE (no endpoint wiring yet —
        that happens at switch-in)."""
        vpe = self.ctxsw.place(name, preferred_node)
        if vpe is None:
            return None
        vpe.kernel = self
        vpe.captable.insert(Capability(CapKind.VPE, vpe))
        # The loader capability targets the DRAM staging area, not the
        # (occupied) SPM.
        vpe.captable.insert(
            Capability(CapKind.MEM, self.ctxsw.staging_object(vpe))
        )
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
        the actual loader hook)."""
        if vpe.state == VpeState.DEAD:
            raise SyscallError(f"VPE {vpe.name!r} is dead")
        if self.start_software is None:
            raise RuntimeError("kernel has no software loader attached")
        # Recorded so recover-by-migrate can restart the software on a
        # new PE after salvaging the SPM image off a dead node.
        vpe.last_entry = (entry, args)
        if not vpe.resident:
            # A queued multiplexed VPE runs when it gets the PE.
            self.ctxsw.start_queued(vpe, entry, args)
            return
        vpe.state = VpeState.RUNNING
        self.start_software(vpe, entry, args)

    def vpe_exited(self, vpe: VpeObject, exit_code: object) -> None:
        """Mark a VPE dead, free its PE, and wake all waiters."""
        vpe.state = VpeState.DEAD
        vpe.exit_code = exit_code
        vpe.pe.release()
        for waiter_vpe, slot in vpe.waiters:
            self._reply(waiter_vpe, slot, ("ok", exit_code))
        vpe.waiters.clear()
        for ik_slot in vpe.remote_waiters:
            self.ik.reply(ik_slot, ("ok", exit_code))
        vpe.remote_waiters.clear()
        for event in vpe.exit_events:
            event.succeed(exit_code)
        vpe.exit_events.clear()
        self.ctxsw.vpe_gone(vpe)
        self.ctxsw.child_exited(vpe)

    def wipe_node(self, node: int):
        """Generator: wipe a node's DTU endpoints — NoC-level fencing
        of state that must no longer be reachable."""
        try:
            yield from self.dtu.configure_remote(node, "wipe")
        except DtuError:
            pass  # node unreachable: fenced by the NoC instead

    def quarantine_pe(self, pe):
        """Generator: fence a PE whose core died — wipe its DTU, take
        it out of allocation (``find_free_pe`` skips failed PEs), and
        stop whatever software was still bound to it."""
        yield from self.wipe_node(pe.node)
        pe.failed = True
        occupant = pe.occupant
        if occupant is not None and occupant.alive:
            try:
                occupant.interrupt("pe-failed")
            except RuntimeError:
                pass  # not blocked; it is dead hardware either way

    def _revoke_foreign_for_node(self, node: int) -> None:
        """Spawn a kernel task revoking every foreign memory capability
        that points at ``node``.

        Used when a remote domain reports (or failover infers) that the
        node's owner died: the regions belong to a peer domain, so the
        foreign flag already guarantees teardown never frees them into
        this kernel's allocator — all that is left is cutting the local
        endpoints configured from those grants.
        """

        def sweep():
            for vpe_id in sorted(self.vpes):
                vpe = self.vpes[vpe_id]
                for cap in vpe.captable.caps():
                    if (cap.table is None or not cap.foreign
                            or cap.kind != CapKind.MEM
                            or cap.obj.node != node):
                        continue
                    for victim in revoke(cap):
                        yield from self._teardown(victim)

        self.sim.process(sweep(), f"{self.label}.revoke-foreign.n{node}")

    # ------------------------------------------------------------------
    # The dispatch loop
    # ------------------------------------------------------------------

    def run(self):
        """Generator: the kernel main loop (runs forever on the kernel PE).

        The loop is strictly event-driven and never blocks on a single
        peer: it serves syscall messages *and* service replies (session
        negotiations, Section 4.5.3), so a service doing a syscall while
        the kernel negotiates with it cannot deadlock the system.
        """
        if not self._booted:
            yield from self.boot()
        inboxes = [(KERNEL_SYSCALL_EP, self._handle_syscall),
                   (KERNEL_REPLY_EP, self._handle_service_reply)]
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
            self._syscalls, "syscall", opcode, vpe, slot, *args
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
            self._peer_ops, "inter-kernel op", operation,
            slot, message.label, *args
        )
        if reply is NO_REPLY:
            if obs is not None:
                obs.end(span, phase="deferred")
            return
        self.ik.reply(slot, reply)
        if obs is not None:
            obs.end(span, status=reply[0])

    def _reply(self, vpe: VpeObject, slot: int, payload) -> None:
        """Late reply to a deferred syscall (fire-and-forget).

        The waiter may have *migrated* since it sent the syscall; the
        stored reply information is retargeted to its current node
        first (the kernel's bookkeeping of where each VPE lives).
        """
        self._retarget_parked_message(vpe, slot)
        self.sim.ledger.charge(Tag.OS, params.M3_KERNEL_REPLY_CYCLES)
        self.dtu.reply(KERNEL_SYSCALL_EP, slot, payload, SYSCALL_MSG_BYTES)

    def _retarget_parked_message(self, vpe: VpeObject, slot: int) -> None:
        ring = self.dtu.ringbuffer(KERNEL_SYSCALL_EP)
        message = ring.peek(slot)
        if message.header.reply_node == vpe.node:
            return
        header = message.header._replace(reply_node=vpe.node,
                                         reply_ep=APP_REPLY_EP)
        ring._slots[slot] = message._replace(header=header)

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
            spm_cap = Capability(
                CapKind.MEM, MemObject(node, 0, spm_size, MemoryPerm.RW)
            )
            spm_cap.foreign = True
            spm_sel = vpe.captable.insert(spm_cap)
            self._reply(vpe, slot, ("ok", (vpe_sel, spm_sel, child_id)))

        self.ik.request_first(
            self.live_peers(), "create_vpe", (name, pe_type), hosted,
            lambda: self._reply(vpe, slot, (
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
                self._reply(vpe, slot, payload)

            self.ik.request(child.kernel_id, "vpe_start",
                            (child.remote_id, entry, tuple(args)),
                            completion)
            return NO_REPLY
        self.start_vpe(child, entry, tuple(args))
        return ()
        yield  # pragma: no cover

    def _sys_vpe_wait(self, vpe, slot, vpe_sel):
        child = vpe.captable.get(vpe_sel, CapKind.VPE).obj
        if isinstance(child, RemoteVpeObject):
            if child.state == VpeState.DEAD:
                return child.exit_code
            self.wait_remote(
                child, lambda payload: self._reply(vpe, slot, payload)
            )
            return NO_REPLY
        if child.state == VpeState.DEAD:
            return child.exit_code
        child.waiters.append((vpe, slot))
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
                # RUNNING forever, and local endpoints built from its
                # foreign grants are dead hardware now.
                proxy.exit_code = ("failed", payload[1])
                self._revoke_foreign_for_node(proxy.node)
            reply(payload)

        self.ik.request(proxy.kernel_id, "vpe_wait", (proxy.remote_id,),
                        completion, no_timeout=True)

    def _sys_vpe_migrate(self, vpe, slot, vpe_sel):
        """Migrate a suspended/queued VPE (the caller must hold its
        capability) to a free PE; returns the new node."""
        child = vpe.captable.get(vpe_sel, CapKind.VPE).obj
        if child.resident and child.state == VpeState.RUNNING:
            raise SyscallError(
                f"VPE {child.name!r} is running; only suspended or queued "
                "VPEs can migrate"
            )
        target = self.find_free_pe()
        if target is None:
            raise SyscallError("no free PE to migrate to")
        try:
            self.ctxsw.migrate(child, target)
        except ValueError as exc:
            raise SyscallError(str(exc)) from None
        return target.node
        yield  # pragma: no cover

    def _sys_vpe_wait_yield(self, vpe, slot, vpe_sel):
        """Wait for a VPE *and* offer the caller's PE for reuse —
        Section 3.3's "inform the kernel about a potentially reusable
        core"."""
        if not self.multiplexing:
            return (yield from self._sys_vpe_wait(vpe, slot, vpe_sel))
        child = vpe.captable.get(vpe_sel, CapKind.VPE).obj
        if isinstance(child, RemoteVpeObject):
            # A spilled child's PE belongs to the peer's domain; plain
            # cross-domain wait, nothing to yield locally.
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

    def _sys_activate(self, vpe, slot, ep_index, cap_sel):
        if not (0 <= ep_index < len(vpe.pe.dtu.eps)):
            raise SyscallError(f"endpoint {ep_index} out of range")
        if cap_sel < 0:
            yield from self.dtu.configure_remote(vpe.node, "invalidate", ep_index)
            return ()
        cap = vpe.captable.get(cap_sel)
        if cap.kind == CapKind.RECV:
            if cap.obj.owner is not None and cap.obj.owner is not vpe:
                raise SyscallError(
                    "an active receive gate cannot move to another VPE"
                )
            cap.obj.owner = vpe
        elif cap.kind == CapKind.SEND and not cap.obj.target.active:
            # Defer until the receiver is ready (Section 4.5.4).
            cap.obj.target.pending_activations.append(
                (vpe, slot, ep_index, cap)
            )
            return NO_REPLY
        registers = self._registers_for(cap)
        yield from self.dtu.configure_remote(
            vpe.node, "configure", ep_index, registers
        )
        self._bind_ep(vpe, ep_index, cap)
        if cap.kind == CapKind.RECV:
            cap.obj.ep_index = ep_index
            self._flush_pending_activations(cap.obj)
        return ()

    def _bind_ep(self, vpe, ep_index: int, cap: Capability) -> None:
        """Record that ``cap`` now occupies (vpe, ep); unbind the previous
        occupant so revocation only invalidates live configurations."""
        key = (vpe.id, ep_index)
        previous = self._ep_bindings.get(key)
        if previous is not None:
            previous.bound_eps.discard(key)
        self._ep_bindings[key] = cap
        cap.bound_eps.add(key)

    def _flush_pending_activations(self, rgate: RecvGateObject) -> None:
        """Complete send-gate activations deferred on ``rgate``."""
        pending, rgate.pending_activations = rgate.pending_activations, []
        for waiter_vpe, slot, ep_index, cap in pending:

            def completion(waiter_vpe=waiter_vpe, slot=slot,
                           ep_index=ep_index, cap=cap):
                registers = self._registers_for(cap)
                yield from self.dtu.configure_remote(
                    waiter_vpe.node, "configure", ep_index, registers
                )
                self._bind_ep(waiter_vpe, ep_index, cap)
                self._reply(waiter_vpe, slot, ("ok", ()))

            self.sim.process(completion(), "kernel.deferred-activate")

    def _registers_for(self, cap: Capability) -> EndpointRegisters:
        if cap.kind == CapKind.SEND:
            gate: SendGateObject = cap.obj
            if gate.target.ep_index is None:
                raise SyscallError("target receive gate is not activated")
            return EndpointRegisters.send_config(
                target_node=gate.target.node,
                target_ep=gate.target.ep_index,
                label=gate.label,
                credits=gate.credits,
                msg_size=gate.target.slot_size,
            )
        if cap.kind == CapKind.RECV:
            gate: RecvGateObject = cap.obj
            return EndpointRegisters.receive_config(
                buffer_addr=0,
                slot_size=gate.slot_size,
                slot_count=gate.slot_count,
            )
        if cap.kind == CapKind.MEM:
            region: MemObject = cap.obj
            return EndpointRegisters.memory_config(
                region.node, region.address, region.size, region.perm
            )
        raise SyscallError(f"cannot activate a {cap.kind.value} capability")

    def _sys_delegate(self, vpe, slot, vpe_sel, src_sel):
        target = vpe.captable.get(vpe_sel, CapKind.VPE).obj
        source_cap = vpe.captable.get(src_sel)
        if isinstance(target, RemoteVpeObject):
            if source_cap.kind != CapKind.MEM:
                raise SyscallError(
                    "only memory capabilities can be delegated across "
                    "kernel domains"
                )
            return self._delegate_remote(vpe, slot, target.kernel_id,
                                         target.remote_id, source_cap.obj)
        if source_cap.kind == CapKind.RECV and source_cap.obj.active:
            # "the kernel only allows to delegate/obtain send and memory
            # capabilities, but not receive capabilities" once active
            # (Section 4.5.4); inactive receive gates are still movable.
            raise SyscallError("active receive capabilities cannot be delegated")
        return target.captable.insert(source_cap.derive())
        yield  # pragma: no cover

    def _delegate_remote(self, vpe, slot, peer: int, remote_vpe: int,
                         region: MemObject):
        """Hand a memory region to a VPE in a peer domain: forward the
        region's descriptor; the peer installs a foreign cap and its
        answer (the selector over there) is the syscall's reply."""
        self.ik.request(
            peer, "delegate_mem",
            (remote_vpe, region.node, region.address, region.size,
             region.perm.value),
            lambda payload: self._reply(vpe, slot, payload),
        )
        return NO_REPLY

    def _sys_revoke(self, vpe, slot, src_sel):
        cap = vpe.captable.get(src_sel)
        removed = revoke(cap)
        for victim in removed:
            yield from self._teardown(victim)
        return len(removed)

    def _teardown(self, cap: Capability):
        """Generator: undo hardware/software state behind a revoked cap."""
        # Invalidate every endpoint this capability is configured on —
        # revocation must cut hardware access, not just bookkeeping.
        for vpe_id, ep_index in sorted(cap.bound_eps):
            self._ep_bindings.pop((vpe_id, ep_index), None)
            holder = self.vpes.get(vpe_id)
            if holder is not None and holder.state != VpeState.DEAD:
                yield from self.dtu.configure_remote(
                    holder.node, "invalidate", ep_index
                )
        cap.bound_eps.clear()
        if cap.kind == CapKind.RECV and cap.obj.ep_index is not None:
            cap.obj.ep_index = None
        elif cap.kind == CapKind.VPE:
            vpe = cap.obj
            if isinstance(vpe, RemoteVpeObject):
                # Best-effort kill in the owning domain; the local proxy
                # is marked dead immediately.
                if vpe.state != VpeState.DEAD:
                    self.ik.request(vpe.kernel_id, "vpe_revoke",
                                    (vpe.remote_id,), lambda payload: None)
                    vpe.state = VpeState.DEAD
            else:
                self._reset_vpe(vpe)
        elif cap.kind == CapKind.MEM and cap.parent is None and not cap.foreign:
            region: MemObject = cap.obj
            if region.node == self.platform.dram_node:
                self.memory.free(region.address, region.size)

    def _reset_vpe(self, vpe: VpeObject) -> None:
        """"the owner of the VPE capability could revoke it to let the
        kernel reset the associated PE" (Section 4.5.5)."""
        if vpe.state == VpeState.DEAD:
            return
        occupant = vpe.pe.occupant
        if occupant is not None and occupant.alive:
            occupant.interrupt("vpe-revoked")
        self.vpe_exited(vpe, None)

    def _sys_create_srv(self, vpe, slot, name, rgate_sel):
        if name in self.services:
            raise SyscallError(f"service {name!r} already registered")
        rgate_cap = vpe.captable.get(rgate_sel, CapKind.RECV)
        if rgate_cap.obj.ep_index is None:
            raise SyscallError("service receive gate must be activated first")
        service = ServiceObject(name=name, rgate=rgate_cap.obj, owner=vpe)
        self.services[name] = service
        # The kernel<->service channel, "created at service registration"
        # (Section 4.5.3): a send endpoint on the kernel's own DTU.
        ep_index = self._next_service_ep
        if ep_index >= len(self.dtu.eps):
            raise SyscallError("kernel is out of service endpoints")
        self._next_service_ep += 1
        self._service_eps[name] = ep_index
        self.dtu.configure_local(
            "configure",
            ep_index,
            EndpointRegisters.send_config(
                target_node=service.rgate.node,
                target_ep=service.rgate.ep_index,
                label=0,  # label 0 marks the kernel to the service
                credits=service.rgate.slot_count,
                msg_size=service.rgate.slot_size,
            ),
        )
        return vpe.captable.insert(
            rgate_cap.derive(service, kind=CapKind.SERVICE)
        )
        yield  # pragma: no cover

    def local_depth(self, replica: str) -> int:
        """Queue depth of a locally-owned replica: unserved messages in
        its service inbox (the receive ring the kernel configured for
        it) plus session negotiations still in flight toward it."""
        service = self.services.get(replica)
        if service is None:
            return 0
        rgate = service.rgate
        dtu = self.platform.pe(rgate.node).dtu
        try:
            depth = dtu.ringbuffer(rgate.ep_index).occupied
        except DtuError:
            depth = 0  # not configured right now (e.g. switched out)
        for pending in self._pending_sessions.values():
            if service in pending:
                depth += 1
        return depth

    def _sys_open_session(self, vpe, slot, name):
        try:
            name = self.router.resolve(name)
        except SyscallError as exc:
            # Every replica's domain is dead: a failure verdict, so the
            # black box is frozen before the client sees the error.
            obs = self.sim.obs
            if obs is not None and obs.flight is not None:
                obs.flight.dump(f"kernel{self.kernel_id}: {exc}",
                                domain=self.kernel_id)
            raise
        service = self.services.get(name)
        if service is None:
            if self.peers:
                # Remote service lookup: the name may be registered with
                # a peer kernel's domain.
                self._open_remote_session(vpe, slot, name)
                return NO_REPLY
            raise SyscallError(f"no service {name!r}")
        return (yield from self._negotiate_session(
            service, vpe.id,
            lambda session_id: ("local", vpe, slot, service, session_id),
        ))

    def _negotiate_session(self, service: ServiceObject, client_vpe: int,
                           pending):
        """Generator: ask ``service`` to accept a session over the
        kernel<->service channel, parking ``pending(session_id)``; the
        reply (labelled with the negotiation id) completes the session
        asynchronously — the kernel loop must stay responsive because
        the service may be blocked in a syscall of its own."""
        session_id = service.next_session_id()
        negotiation = next(self._negotiation_ids)
        self._pending_sessions[negotiation] = pending(session_id)
        yield self.dtu.send(
            self._service_eps[service.name],
            ("open_session", (session_id, client_vpe)),
            SYSCALL_MSG_BYTES,
            reply_ep=KERNEL_REPLY_EP,
            reply_label=negotiation,
        )
        return NO_REPLY

    def _handle_service_reply(self, slot, message):
        """Generator: complete a parked negotiation — an inter-kernel
        request this kernel sent to a peer, or a session being opened
        with a local service."""
        self.dtu.ack_message(KERNEL_REPLY_EP, slot)
        continuation = self.ik.complete(message.label)
        if continuation is not None:
            # The continuation runs as a child of the peer's reply
            # message, so the cross-domain hop stays on the causal chain.
            yield from self._complete_negotiation(
                "ik_reply", "ik", message,
                lambda: continuation(message.payload),
            )
            return
        pending = self._pending_sessions.pop(message.label, None)
        if pending is None:
            return
        # Finishing a parked session negotiation: on behalf of a peer
        # domain ("remote" — inter-kernel work) or of a local client's
        # open_session syscall.
        name, category = (
            ("srv_open.finish", "ik") if pending[0] == "remote"
            else ("open_session.finish", "syscall")
        )
        yield from self._complete_negotiation(
            name, category, message,
            lambda: self._finish_pending_session(pending, message),
        )

    def _complete_negotiation(self, name, category, message, action):
        """Generator: charge the dispatch cost and run ``action`` under
        a span parented on the reply ``message``."""
        obs = self.sim.obs
        span = -1
        if obs is not None:
            span = obs.begin(name, category, self.node,
                             parent=header_context(message.header))
        yield self.sim.delay(params.M3_KERNEL_DISPATCH_CYCLES, tag=Tag.OS)
        try:
            action()
        finally:
            if obs is not None:
                obs.end(span)

    def _finish_pending_session(self, pending, message) -> None:
        """Complete one parked session negotiation (service replied)."""
        status, _detail = message.payload
        if pending[0] == "remote":
            # A session negotiated on behalf of a peer kernel's client:
            # answer over the inter-kernel channel with the service
            # gate's location so the peer can build the send gate.
            _kind, ik_slot, service, session_id, client_kernel, client_vpe \
                = pending
            if status != "ok":
                self.ik.reply(ik_slot, (
                    "err", f"service {service.name!r} denied the session"
                ))
                return
            service.sessions[session_id] = RemoteClientRef(
                kernel_id=client_kernel, vpe_id=client_vpe
            )
            rgate = service.rgate
            self.ik.reply(ik_slot, (
                "ok",
                (session_id, rgate.node, rgate.ep_index, rgate.slot_size),
            ))
            return
        _kind, vpe, syscall_slot, service, session_id = pending
        if status != "ok":
            self._reply(
                vpe, syscall_slot,
                ("err", f"service {service.name!r} denied the session"),
            )
            return
        service.sessions[session_id] = vpe
        self._grant_session(vpe, syscall_slot, service, service.rgate,
                            session_id)

    def _grant_session(self, vpe, slot, service, rgate, session_id) -> None:
        """Answer an ``open_session``: the client gets a session
        capability and a send gate to the service's receive gate."""
        session = SessionObject(service=service, label=session_id, client=vpe)
        session_sel = vpe.captable.insert(Capability(CapKind.SESSION, session))
        sgate = SendGateObject(target=rgate, label=session_id, credits=2)
        sgate_sel = vpe.captable.insert(Capability(CapKind.SEND, sgate))
        self._reply(vpe, slot, ("ok", (session_sel, sgate_sel)))

    def _open_remote_session(self, vpe, slot, name: str) -> None:
        """Probe peer kernels for service ``name``, cached owner first,
        then in kernel-id order, until one accepts the session.  Dead
        peers are skipped — failover purges their cache entries, so a
        replica registered with a surviving domain takes over."""
        candidates = self.live_peers()
        cached = self._remote_services.get(name)
        if cached is not None and cached in candidates:
            candidates.remove(cached)
            candidates.insert(0, cached)

        def opened(peer, detail):
            session_id, rgate_node, rgate_ep, slot_size = detail
            self._remote_services[name] = peer
            self._grant_session(
                vpe, slot, RemoteServiceRef(name=name, kernel_id=peer),
                RemoteGateStub(node=rgate_node, ep_index=rgate_ep,
                               slot_size=slot_size),
                session_id,
            )

        def nobody():
            self._remote_services.pop(name, None)
            self._reply(vpe, slot, ("err", f"no service {name!r}"))

        self.ik.request_first(candidates, "srv_open", (name, vpe.id),
                              opened, nobody)

    def _sys_srv_delegate(self, vpe, slot, service_sel, session_id,
                          src_mem_sel, offset, size, perm_value):
        service_cap = vpe.captable.get(service_sel, CapKind.SERVICE)
        service: ServiceObject = service_cap.obj
        client = service.sessions.get(session_id)
        if client is None:
            raise SyscallError(f"no session {session_id} at {service.name!r}")
        source_cap = vpe.captable.get(src_mem_sel, CapKind.MEM)
        derived = source_cap.obj.slice(offset, size, MemoryPerm(perm_value))
        if isinstance(client, RemoteClientRef):
            return self._delegate_remote(vpe, slot, client.kernel_id,
                                         client.vpe_id, derived)
        return client.captable.insert(source_cap.derive(derived))
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # Inter-kernel operations: what this kernel does for its peers.
    # Each is a generator taking (slot, sender kernel id, *args).
    # ------------------------------------------------------------------

    def _serve_srv_open(self, slot, sender, name, client_vpe):
        """A peer kernel asks to open a session with a local service on
        behalf of one of its VPEs."""
        service = self.services.get(name)
        if service is None:
            raise SyscallError(f"no service {name!r}")
        return (yield from self._negotiate_session(
            service, client_vpe,
            lambda session_id: ("remote", slot, service, session_id, sender,
                                client_vpe),
        ))

    def _serve_delegate_mem(self, slot, sender, vpe_id, node, address, size,
                         perm_value):
        """Install a memory capability delegated from a peer domain.
        The cap is marked foreign: revoking it must not free the region
        into this kernel's allocator."""
        vpe = self.vpes.get(vpe_id)
        if vpe is None or vpe.state == VpeState.DEAD:
            raise SyscallError(f"no live VPE {vpe_id} in this domain")
        cap = Capability(
            CapKind.MEM, MemObject(node, address, size, MemoryPerm(perm_value))
        )
        cap.foreign = True
        return vpe.captable.insert(cap)
        yield  # pragma: no cover

    def _serve_create_vpe(self, slot, sender, name, pe_type):
        """Host a VPE spilled from a peer kernel's full domain."""
        child = yield from self.create_vpe(name, pe_type)
        return (child.id, child.node, child.pe.spm_data.size)

    def _serve_vpe_start(self, slot, sender, vpe_id, entry, args):
        vpe = self.vpes.get(vpe_id)
        if vpe is None:
            if self.migration.forward(vpe_id, slot, "vpe_start",
                                      (entry, tuple(args))):
                return NO_REPLY
            raise SyscallError(f"no VPE {vpe_id} in this domain")
        self.start_vpe(vpe, entry, tuple(args))
        return ()
        yield  # pragma: no cover

    def _serve_vpe_wait(self, slot, sender, vpe_id):
        """Cross-domain VPE_WAIT: reply now if the VPE is dead, else
        park the ring slot until :meth:`vpe_exited` fires the exit
        notification."""
        vpe = self.vpes.get(vpe_id)
        if vpe is None:
            if self.migration.forward(vpe_id, slot, "vpe_wait", ()):
                return NO_REPLY
            raise SyscallError(f"no VPE {vpe_id} in this domain")
        if vpe.state == VpeState.DEAD:
            return vpe.exit_code
        vpe.remote_waiters.append(slot)
        return NO_REPLY
        yield  # pragma: no cover

    def _serve_vpe_revoke(self, slot, sender, vpe_id):
        """Best-effort kill of a spilled VPE whose capability was
        revoked in the owning domain."""
        vpe = self.vpes.get(vpe_id)
        if vpe is None:
            if self.migration.forward(vpe_id, slot, "vpe_revoke", ()):
                return NO_REPLY
            return ()
        self._reset_vpe(vpe)
        return ()
        yield  # pragma: no cover

