"""The DTU device model.

Everything PE-external flows through here: message sends, replies,
RDMA-style memory reads/writes, and the privileged remote-configuration
packets through which a kernel exercises NoC-level isolation.

Timing: injection costs :data:`params.DTU_INJECT_CYCLES`; wire time is
the NoC model's job; SPM-side service costs :data:`SPM_ACCESS_CYCLES`.
Transfer durations are charged to the ``xfer`` ledger tag — the
"Xfers" stack of the paper's figures.

Every transfer — message, reply, memory or configuration request —
takes one pipeline: *stamp* (an id, the trace context) → *inject*
(:data:`params.DTU_INJECT_CYCLES`) → *wire* → *ack | response |
timeout* → *settle*.  Reliability is the fourth stage and nothing
else: a transfer stamped with a negative id (a best-effort message) or
injected unarmed (a best-effort request) skips it, and every other
line is shared.
"""

from __future__ import annotations

import itertools
import typing

from repro import params
from repro.dtu.message import HEADER_BYTES, Message, MessageHeader
from repro.dtu.registers import EndpointKind, EndpointRegisters, MemoryPerm
from repro.dtu.ringbuffer import DUPLICATE, RingBuffer
from repro.noc.packet import Packet
from repro.obs.causal import NO_CONTEXT
from repro.sim.events import SUCCEEDED, Event
from repro.sim.ledger import Tag
from repro.sim.resources import Signal

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.spm import Scratchpad
    from repro.noc.network import Network
    from repro.sim import Simulator

# Enum member access is a descriptor lookup (~80 ns on CPython 3.11);
# the per-message kind checks compare identity against these instead.
_SEND = EndpointKind.SEND
_RECEIVE = EndpointKind.RECEIVE

#: Arg names of the message, memory-transfer and endpoint-config spans.
_BYTES_SPAN_ARGS = ("destination", "bytes")
_CONFIG_SPAN_ARGS = ("destination", "operation")

#: Cycles for the DTU to serve a request against the local SPM.
SPM_ACCESS_CYCLES = 2

#: Wire size of a memory read request / write ack descriptor.
MEM_REQUEST_BYTES = 16

#: The observer counter retransmissions are sampled into (a telemetry series).
RETRANSMITS_SERIES = "dtu.retransmits"

#: Observer counter -> the DTU total it samples, summed over the DTUs
#: registered (``Observer.monitor``).  Each total moves only after a
#: ``network.send`` or an observer instant in the same cycle
#: (docs/observability.md, "Sampled counters").
OBSERVED_TOTALS = {
    "dtu.acks_sent": "acks_sent",
    RETRANSMITS_SERIES: "retransmits",
    "dtu.redirected": "redirected",
}


def serve_memory(memory: "Scratchpad", sim: "Simulator", network: "Network",
                 node: int, access_cycles: int, packet: Packet) -> None:
    """Answer a ``mem_read`` or ``mem_write`` against ``memory``: the
    memory server of every DTU (its SPM) and of the DRAM module.

    - ``mem_read``:  payload ``(transaction, address, length)``; the
      response carries the bytes read.
    - ``mem_write``: payload ``(transaction, address, data)``; the
      response carries nothing.

    The access happens at once; the ``mem_resp`` leaves after
    ``access_cycles``.  It rides the request's trace context, so the
    RDMA completion's NoC span joins the originating request tree.
    """
    kind = packet.kind
    if kind == "mem_read":
        transaction, address, length = packet.payload
        data = memory.read(address, length)
    elif kind == "mem_write":
        transaction, address, data = packet.payload
        memory.write(address, data)
        data = b""
    else:
        raise RuntimeError(f"node {node} got {packet!r}")
    # The send itself is the callback, with the response as its argument.
    sim.schedule(access_cycles, network.send,
                 Packet(node, packet.source, "mem_resp", len(data),
                        (transaction, data),
                        packet.trace_id, packet.trace_parent))


class DtuError(Exception):
    """Base class for DTU-reported failures."""


class MissingCredits(DtuError):
    """Send denied: the endpoint is out of credits (Section 4.4.3)."""


class NoPermission(DtuError):
    """Operation denied: wrong endpoint kind, bounds, or privilege."""


class TransferTimeout(DtuError):
    """A reliable transfer stayed unacknowledged through the whole
    retransmit budget (dead receiver, partitioned NoC)."""


class DTU:
    """One Data Transfer Unit, attached to a NoC node.

    ``local_memory`` is the PE's data SPM (or any byte-accurate memory)
    that remote memory endpoints may target and into which received
    ringbuffers conceptually live.
    """

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        node: int,
        local_memory: "Scratchpad",
        ep_count: int = params.DTU_ENDPOINTS,
    ):
        if ep_count < 1:
            raise ValueError("a DTU needs at least one endpoint")
        self.sim = sim
        self.network = network
        self.node = node
        self.local_memory = local_memory
        self.eps: list[EndpointRegisters] = [
            EndpointRegisters() for _ in range(ep_count)
        ]
        #: ringbuffer storage per receive endpoint.  An endpoint has one
        #: exactly while it is configured RECEIVE (only _apply_config
        #: writes this), so one probe answers "is this a receive
        #: endpoint" and yields its storage.
        self._ringbufs: dict[int, RingBuffer] = {}
        #: fired when a message lands in the endpoint's ringbuffer.
        self._signals: dict[int, Signal] = {}
        #: one id space for everything that awaits an answer: reliable
        #: messages (their sequence number) and every transaction.
        self._ids = itertools.count()
        #: the event each id's ack or response completes.
        self._pending: dict[int, "Event"] = {}
        #: reliable only: ``(packet, credit_ep)`` to resend until then.
        self._retx: dict[int, tuple[Packet, int]] = {}
        #: acknowledge and retransmit (see enable_reliability).
        self.reliable = False
        # Event names, built once per DTU rather than once per packet.
        self._delivery_name = f"dtu{node}.delivery"
        self._transaction_name = f"dtu{node}.transaction"
        #: "all DTUs are privileged at boot" (Section 3); the kernel
        #: downgrades application PEs during boot.
        self.privileged = True
        self.messages_sent = 0
        self.messages_dropped = 0
        self.retransmits = 0
        self.acks_sent = 0
        #: set by the owning PE: where the privileged "probe" config
        #: operation reads the core's halted/running status.
        self.status_source = None
        #: live-migration forwarding: while set, message/reply packets
        #: arriving here are re-sent to this node instead of delivered
        #: (the kernel clears it once the redirect window closes).
        self.redirect_to: int | None = None
        self.redirected = 0
        network.attach(node, self.handle_packet)

    def enable_reliability(self) -> None:
        """Switch this DTU to reliable delivery.

        Outgoing messages and replies get a sequence number and are
        retransmitted with exponential backoff until acknowledged
        (hardware acks, :data:`params.DTU_RETX_MAX` attempts); memory
        and configuration requests are re-issued the same way until
        answered.  When the budget is exhausted the DTU refunds the
        spent credit and fails the transfer with
        :class:`TransferTimeout` instead of leaking endpoint state.
        Off by default: the best-effort paths are cycle-identical to
        the calibrated model.
        """
        self.reliable = True

    # ------------------------------------------------------------------
    # Local (software-visible) interface
    # ------------------------------------------------------------------

    def ep(self, index: int) -> EndpointRegisters:
        """Endpoint registers (read-only from the application's view)."""
        if not (0 <= index < len(self.eps)):
            raise ValueError(f"endpoint {index} out of range")
        return self.eps[index]

    def ringbuffer(self, ep_index: int) -> RingBuffer:
        """The ringbuffer of a receive endpoint.

        The one place that says what is wrong with an endpoint that has
        none: the per-message operations probe ``_ringbufs`` themselves
        and come here only on a miss.
        """
        ring = self._ringbufs.get(ep_index)
        if ring is None:
            self.ep(ep_index)  # out of range is a ValueError
            raise NoPermission(f"EP{ep_index} is not a receive endpoint")
        return ring

    def signal(self, ep_index: int) -> Signal:
        """The delivery signal of a receive endpoint (for wait loops)."""
        if ep_index not in self._ringbufs:
            self.ringbuffer(ep_index)  # raises what is wrong
        return self._signals[ep_index]

    @property
    def idle(self) -> bool:
        """Nothing sent from here awaits an ack, a response or a
        retransmit."""
        return not self._pending and not self._retx

    def stats(self) -> dict:
        """This DTU's totals: retransmissions, and the duplicate copies
        its receive rings suppressed."""
        return {
            "retransmits": self.retransmits,
            "duplicates": sum(ring.duplicates
                              for ring in self._ringbufs.values()),
        }

    def hand_off(self, successor: "DTU") -> None:
        """Live migration, the hardware half: every ringbuffer whose
        endpoint the kernel has configured at ``successor`` moves there
        with its unread messages and its duplicate-suppression window,
        and everything blocked on this DTU is woken to re-poll."""
        for index in self._ringbufs.keys() & successor._ringbufs.keys():
            successor._ringbufs[index] = self._ringbufs.pop(index)
        for signal in self._signals.values():
            signal.fire()

    def refund_credit(self, ep_index: int) -> None:
        """Give send endpoint ``ep_index`` one credit back, never past
        its ceiling: a reply arrived, or the message that spent it was
        given up on (here, or by software that knows no reply will
        come) — a dead receiver cannot leak an endpoint's credits."""
        ep = self.eps[ep_index]
        if ep.kind is _SEND:
            ep.credits = min(ep.credits + 1, ep.max_credits)

    # -- message passing ------------------------------------------------

    def send(
        self,
        ep_index: int,
        payload: object,
        length: int,
        reply_ep: int | None = None,
        reply_label: int = 0,
    ) -> "Event":
        """Send a message through a send endpoint.

        Returns the delivery-complete event.  Sending is asynchronous:
        the core is free immediately after programming the registers;
        callers that need synchronous semantics yield the event.

        Raises :class:`MissingCredits` when the endpoint has no credits
        left — "message sending is denied by the DTU until the credits
        have been refilled" (Section 4.4.3).
        """
        eps = self.eps
        # Range-checked inline; an out-of-range index takes the
        # accessor, which raises.
        ep = eps[ep_index] if 0 <= ep_index < len(eps) else self.ep(ep_index)
        if ep.kind is not _SEND:
            raise NoPermission(f"EP{ep_index} is not a send endpoint")
        if length < 0:
            raise ValueError("negative message length")
        if HEADER_BYTES + length > ep.msg_size:
            raise NoPermission(
                f"message of {length}B exceeds EP{ep_index} limit of "
                f"{ep.msg_size - HEADER_BYTES}B payload"
            )
        if ep.credits < 1:
            raise MissingCredits(f"EP{ep_index} has no credits left")
        if reply_ep is None:
            reply_node = reply_ep = -1
        else:
            if reply_ep not in self._ringbufs:
                self.ringbuffer(reply_ep)  # raises what is wrong
            reply_node = self.node
        ep.credits -= 1
        seq = next(self._ids) if self.reliable else -1
        ctx, msg_span = self._stamp_context()
        # Headers and packets are built positionally, in field order,
        # on the per-message paths: keyword binding doubles their cost.
        header = MessageHeader(
            ep.label, length, reply_node, reply_ep, reply_label, ep_index,
            seq, ctx.trace_id, msg_span,
        )
        packet = Packet(
            self.node, ep.target_node, "message", HEADER_BYTES + length,
            (ep.target_ep, Message(header, payload), -1),
            ctx.trace_id, msg_span,
        )
        self.messages_sent += 1
        return self._inject(packet, seq, ep_index, ctx, msg_span)

    def _stamp_context(self):
        """The trace context to stamp on an outgoing message, plus a
        reserved span id for the message's own DTU span (the parent the
        receiver's handler spans adopt).  ``(NO_CONTEXT, -1)`` when
        observability is off or the sending node has no active request.
        """
        obs = self.sim.obs
        if obs is None:
            return NO_CONTEXT, -1
        ctx = obs.causal.current(self.node)
        if not ctx.valid:
            return NO_CONTEXT, -1
        return ctx, obs.reserve_span_id()

    def reply(
        self, ep_index: int, slot: int, payload: object, length: int
    ) -> "Event":
        """Reply to the message in ``slot`` of receive endpoint ``ep_index``.

        The DTU extracts the destination from the stored message header
        (Section 4.4.4); a reply needs no dedicated channel and carries a
        credit refill for the original sender.  The slot is acknowledged
        (freed) as part of the reply.
        """
        ring = self._ringbufs.get(ep_index) or self.ringbuffer(ep_index)
        if not self.eps[ep_index].replies_enabled:
            raise NoPermission(f"EP{ep_index} has replies disabled")
        request = ring.peek(slot).header
        if request.reply_node < 0:
            raise NoPermission("original message does not permit a reply")
        seq = next(self._ids) if self.reliable else -1
        ctx, msg_span = self._stamp_context()
        # No reply to a reply: reply_node/reply_ep/credit_ep stay -1.
        header = MessageHeader(request.reply_label, length, -1, -1, 0, -1,
                               seq, ctx.trace_id, msg_span)
        packet = Packet(
            self.node, request.reply_node, "reply", HEADER_BYTES + length,
            (request.reply_ep, Message(header, payload), request.credit_ep),
            ctx.trace_id, msg_span,
        )
        ring.ack(slot)
        return self._inject(packet, seq, -1, ctx, msg_span)

    def _observe_message(self, packet: Packet, done: "Event",
                         span_id: int, parent) -> None:
        """Record a message/reply span and its round-trip histogram.

        The span closes (and the sample lands) when ``done`` triggers:
        delivery completion in best-effort mode, the hardware ack in
        reliable mode — i.e. the true round trip.  ``span_id``/``parent``
        are the stamped causal identity: the context captured *now*, at
        send time — by completion the node may be working for someone
        else, so the callback must not consult the context stack.
        """
        obs = self.sim.obs
        obs.count(f"dtu.sends.{packet.kind}")
        started = self.sim.now

        def record(event, started=started, packet=packet):
            if event._state != SUCCEEDED:  # no ``ok`` property call a message
                return
            obs.observe("dtu.msg_rtt", self.sim.now - started)
            obs.record(
                obs.kinds[packet.kind, "dtu", _BYTES_SPAN_ARGS, (
                    packet.destination, packet.size_bytes)],
                self.node, started, self.sim.now, span_id,
                parent.trace_id, parent.span_id,
            )

        done.add_callback(record)

    def fetch_message(self, ep_index: int) -> tuple[int, Message] | None:
        """Poll a receive endpoint: the next unread (slot, message) or None."""
        ring = self._ringbufs.get(ep_index) or self.ringbuffer(ep_index)
        return ring.fetch()

    def wait_message(self, ep_index: int):
        """Generator: block until a message is available, then return it.

        Models the paper's polling loop ("the software polls a DTU
        register to wait for received messages", Section 4.3) without
        busy-spinning the simulator.  The wait itself is unbounded: a
        message that will not come is the sender's to give up on
        (:class:`TransferTimeout`, ik-RPC's per-call timers).
        """
        while True:
            fetched = self.fetch_message(ep_index)
            if fetched is not None:
                return fetched
            # fetch_message has just checked the endpoint, so its signal
            # is read without going through signal() again.
            yield self._signals[ep_index].wait()

    def ack_message(self, ep_index: int, slot: int) -> None:
        """Free a ringbuffer slot after processing (no reply sent)."""
        ring = self._ringbufs.get(ep_index) or self.ringbuffer(ep_index)
        ring.ack(slot)

    # -- remote memory access ----------------------------------------------

    def read_memory(self, ep_index: int, offset: int, length: int):
        """Generator: RDMA-read ``length`` bytes at ``offset`` of a memory EP.

        Returns the data as the target memory hands it out — read-only,
        ``bytes | memoryview`` (see :meth:`repro.hw.spm.Scratchpad.read`).
        """
        ep = self._memory_ep(ep_index, offset, length, MemoryPerm.READ)
        return (yield from self._transaction(
            "mem_read", ep.mem_node, MEM_REQUEST_BYTES,
            (ep.mem_addr + offset, length), length,
            _BYTES_SPAN_ARGS, MEM_REQUEST_BYTES,
        ))

    def write_memory(self, ep_index: int, offset: int, data: bytes):
        """Generator: RDMA-write ``data`` to ``offset`` of a memory EP."""
        if type(data) is not bytes and not (
                type(data) is memoryview and type(data.obj) is bytes):
            # snapshot now, by the memory model's rule: immutable
            # payloads travel by reference, a mutable one is copied
            data = bytes(data)
        ep = self._memory_ep(ep_index, offset, len(data), MemoryPerm.WRITE)
        size = MEM_REQUEST_BYTES + len(data)
        yield from self._transaction(
            "mem_write", ep.mem_node, size,
            (ep.mem_addr + offset, data), 0, _BYTES_SPAN_ARGS, size,
        )
        return len(data)

    def _memory_ep(self, ep_index: int, offset: int, length: int,
                   need: MemoryPerm) -> EndpointRegisters:
        ep = self.ep(ep_index)
        if ep.kind != EndpointKind.MEMORY:
            raise NoPermission(f"EP{ep_index} is not a memory endpoint")
        # Raw flag values: Flag.__and__ is a Python-level call that
        # builds a new member, once per RDMA transaction.
        if not ep.mem_perm._value_ & need._value_:
            raise NoPermission(f"EP{ep_index} lacks {need} permission")
        if offset < 0 or length < 0 or offset + length > ep.mem_size:
            raise NoPermission(
                f"access [{offset}, {offset + length}) outside EP{ep_index} "
                f"region of {ep.mem_size}B"
            )
        return ep

    def _transaction(self, kind: str, target: int, size_bytes: int,
                     payload_tail: tuple, expect_bytes: int,
                     arg_names: tuple[str, str], arg: object):
        """Generator: issue the request packet ``(transaction,
        *payload_tail)`` and wait for the response that completes it;
        ``expect_bytes`` is that response's size.  The round trip's span
        has ``arg_names`` for args, valued ``(target, arg)``.

        Requests are idempotent at the receiver (reads, overwrites,
        register writes), so a reliable DTU simply re-issues one until
        it is answered: a duplicate caused by a lost *response* is
        harmless, and the duplicate response finds nothing to settle.
        """
        transaction = next(self._ids)
        done = self._pending[transaction] = Event(self.sim,
                                                  self._transaction_name)
        ctx, txn_span = self._stamp_context()
        packet = Packet(self.node, target, kind, size_bytes,
                        (transaction, *payload_tail), ctx.trace_id, txn_span)
        started = self.sim.now
        # No delivery event: nobody awaits the request's own arrival.
        self.sim.schedule(
            params.DTU_INJECT_CYCLES, self._injected,
            (packet, None, transaction if self.reliable else -1, -1,
             expect_bytes),
        )
        response = yield done
        # Whole round trip (inject + request + service + response) is
        # transfer time from the core's point of view.
        self.sim.ledger.charge(Tag.XFER, self.sim.now - started)
        obs = self.sim.obs
        if obs is not None:
            # The round trip as one DTU span; the request and response
            # packets' NoC spans hang off it via the stamp.
            obs.record(
                obs.kinds[kind, "dtu", arg_names, (target, arg)],
                self.node, started, self.sim.now, txn_span,
                ctx.trace_id, ctx.span_id,
            )
        return response

    # ------------------------------------------------------------------
    # Remote (kernel-side) configuration — NoC-level isolation
    # ------------------------------------------------------------------

    def configure_remote(self, target_node: int, operation: str, *args):
        """Generator: kernel-side remote endpoint configuration.

        Sends a privileged configuration packet to ``target_node`` and
        waits for the acknowledgement.  The *hardware* stamps the
        packet with this DTU's privilege — software cannot forge it —
        so only kernel PEs can reconfigure endpoints (Section 4.3).
        Raises :class:`NoPermission` if this DTU is unprivileged.
        """
        result = yield from self._transaction(
            "ep_config", target_node, 64,
            (self.privileged, operation, args), 0,
            _CONFIG_SPAN_ARGS, operation,
        )
        if result == "denied":
            raise NoPermission(
                f"DTU at node {self.node} is not privileged to configure "
                f"node {target_node}"
            )
        return result

    def configure_local(self, operation: str, *args) -> object:
        """Directly write this DTU's configuration registers.

        Models local memory-mapped register writes, which succeed only
        while the DTU is still privileged — i.e. for kernel PEs, or for
        any PE during boot before the kernel downgrades it.
        """
        if not self.privileged:
            raise NoPermission(
                f"DTU at node {self.node} is unprivileged; configuration "
                "registers are only writable by kernel PEs"
            )
        return self._apply_config(operation, args)

    def _apply_config(self, operation: str, args: tuple) -> object:
        """Execute a validated configuration operation locally."""
        if operation == "configure":
            ep_index, registers = args
            self.eps[ep_index] = registers
            if registers.kind is _RECEIVE:
                self._ringbufs[ep_index] = RingBuffer(
                    registers.slot_size, registers.slot_count
                )
                # The per-endpoint delivery signal is stable hardware —
                # waiters survive reconfiguration (e.g. after a context
                # switch restores the endpoint).
                self._signals.setdefault(
                    ep_index, Signal(self.sim, f"dtu{self.node}.ep{ep_index}")
                )
            else:
                self._ringbufs.pop(ep_index, None)
            return "ok"
        if operation == "invalidate":
            (ep_index,) = args
            self.eps[ep_index].invalidate()
            self._ringbufs.pop(ep_index, None)
            return "ok"
        if operation == "downgrade":
            self.privileged = False
            return "ok"
        if operation == "upgrade":
            self.privileged = True
            return "ok"
        if operation == "probe":
            # Kernel watchdog liveness probe: the DTU answers in
            # hardware, reporting the attached core's halted bit — a
            # crashed core cannot fake being alive, and a dead core
            # cannot prevent the answer.
            source = self.status_source
            if source is not None and not source.core_alive():
                return "halted"
            return "alive"
        if operation == "wipe":
            # Kernel-driven recovery: invalidate every endpoint and drop
            # all buffered/inflight state — the NoC-level fencing that
            # cuts a failed PE off from the rest of the chip (Section 3).
            for ep in self.eps:
                ep.invalidate()
            self._ringbufs.clear()
            self._retx.clear()
            self._pending.clear()
            self.redirect_to = None
            return "ok"
        raise RuntimeError(f"unknown configuration operation {operation!r}")

    # ------------------------------------------------------------------
    # NoC delivery handling (the hardware side)
    # ------------------------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        """Entry point for packets the NoC delivers to this node."""
        kind = packet.kind
        if kind == "message" or kind == "reply":
            if self.redirect_to is not None:
                # Live-migration window: software-visible traffic chases
                # the VPE to its new PE.  The source is preserved so the
                # new DTU's hardware ack reaches the original sender.
                # Acks and memory/config responses are NOT forwarded —
                # they settle transfers this DTU itself still owns.
                self.network.send(
                    Packet(packet.source, self.redirect_to, kind,
                           packet.size_bytes, packet.payload,
                           packet.trace_id, packet.trace_parent)
                )
                self.redirected += 1
                return
            ep_index, message, credit_ep = packet.payload
            self._deliver_message(ep_index, message, credit_ep, packet.source)
        elif kind == "msg_ack" or kind == "mem_resp" or kind == "config_ack":
            transfer, value = packet.payload
            self._settle(transfer, value)
        elif kind == "ep_config":
            transaction, privileged, operation, args = packet.payload
            if privileged:
                result = self._apply_config(operation, args)
            else:
                result = "denied"
            # The ack inherits the request's trace, completing the
            # transaction round trip in the causal graph.
            self.network.send(
                Packet(self.node, packet.source, "config_ack", 16,
                       (transaction, result),
                       packet.trace_id, packet.trace_parent)
            )
        else:  # mem_read / mem_write; any other kind raises there
            serve_memory(self.local_memory, self.sim, self.network,
                         self.node, SPM_ACCESS_CYCLES, packet)

    def _deliver_message(self, ep_index: int, message: Message,
                         credit_ep: int, source: int) -> None:
        """A message or reply arrived for ``ep_index``; ``credit_ep >= 0``
        names the send endpoint a reply refills.  Side effects happen at
        most once per sequence number, and a reliable message the
        receiver cannot accept is simply not acked: the sender
        retransmits and eventually gives up.
        """
        seq = message.header.seq
        ring = self._ringbufs.get(ep_index)
        slot = None if ring is None else ring.push(message, source)
        if slot is DUPLICATE:
            # Already delivered once: the earlier ack was lost.  Re-ack
            # without repeating the delivery side effects.
            self._send_ack(source, seq)
            return
        # The refill: once accepted if reliable (a refused reply comes
        # again), in any case if best-effort (nothing will resend it).
        if credit_ep >= 0 and (slot is not None or seq < 0):
            self.refund_credit(credit_ep)
        if slot is None:
            self.messages_dropped += 1  # no such endpoint, or ring full
            return
        if seq >= 0:
            self._send_ack(source, seq)
        self._signals[ep_index].fire()

    def _send_ack(self, destination: int, seq: int) -> None:
        """Hardware-generated delivery acknowledgement (no core
        involvement, no ledger charge)."""
        self.network.send(
            Packet(self.node, destination, "msg_ack", 8, (seq, None))
        )
        self.acks_sent += 1

    # ------------------------------------------------------------------
    # The transfer pipeline: inject -> wire -> (ack | response | timeout)
    # -> settle
    # ------------------------------------------------------------------

    def _inject(self, packet: Packet, seq: int, credit_ep: int,
                ctx, span: int) -> "Event":
        """Queue a message or reply after the injection delay; return
        its completion event: delivery if best-effort (``seq < 0``),
        the hardware ack — or :class:`TransferTimeout` — if reliable.
        ``credit_ep`` names the send endpoint whose credit is refunded
        should the DTU give up (-1: none)."""
        done = Event(self.sim, self._delivery_name)
        if seq >= 0:
            self._pending[seq] = done
        self.sim.ledger.charge(Tag.XFER, params.DTU_INJECT_CYCLES)
        # A bound method and a tuple, not a closure per packet.
        self.sim.schedule(params.DTU_INJECT_CYCLES, self._injected,
                          (packet, done, seq, credit_ep, 0))
        if self.sim.obs is not None:
            self._observe_message(packet, done, span, ctx)
        return done

    def _injected(self, injection: tuple) -> None:
        """The injection delay has passed: hand the packet to the NoC
        and, if the transfer is armed (``transfer >= 0``), keep it for
        resending until :meth:`_settle`.

        ``done`` is the completion event of a message, which occupies
        the core for its wire time; a transaction passes ``None`` and
        is charged for its round trip instead.  ``expect_bytes`` is the
        size of the response: its serialisation time counts toward the
        round trip the retransmit timer must not undercut.
        """
        packet, done, transfer, credit_ep, expect_bytes = injection
        completion = self.network.send(packet)
        if done is not None:
            wire = completion - self.sim.now
            self.sim.ledger.charge(Tag.XFER, wire)
            if transfer < 0:
                # Best-effort: delivered is done.
                self.sim.schedule(wire, done.succeed)
        if transfer >= 0:
            self._retx[transfer] = (packet, credit_ep)
            response_wire = -(-expect_bytes // self.network.bytes_per_cycle)
            self._arm_retx(transfer, completion + response_wire,
                           params.DTU_RETX_TIMEOUT_CYCLES, 1)

    def _arm_retx(self, transfer: int, eta: int, grace: int,
                  attempt: int) -> None:
        """Schedule the retransmit timer for an unsettled transfer.

        The timer fires ``grace`` cycles after ``eta`` — the cycle the
        network promised delivery at — so a large packet (whose wire
        time alone exceeds any flat timeout) is never retransmitted
        while it is still legitimately in flight.  ``grace`` covers the
        receiver's turnaround plus the ack's way back and grows by
        :data:`params.DTU_RETX_BACKOFF` per attempt.  A settled
        transfer's timer is deliberately left to fire and find nothing:
        the cycle at which a run's queue drains is simulated output
        (``run_profile`` drains these timers, the benchmark pins the
        result as ``sim_cycles``), so cancelling them would move it.
        """
        self.sim.schedule(max(1, eta - self.sim.now) + grace,
                          self._retx_fire, (transfer, grace, attempt))

    def _retx_fire(self, timer: tuple) -> None:
        transfer, grace, attempt = timer
        entry = self._retx.get(transfer)
        if entry is None:
            return  # settled (or wiped) in the meantime
        packet, credit_ep = entry
        if attempt > params.DTU_RETX_MAX:
            # Give up: forget the transfer, return the credit it holds
            # and fail whoever waits for it (nobody, if a wipe came
            # between a request's issue and its injection).
            del self._retx[transfer]
            if credit_ep >= 0:
                self.refund_credit(credit_ep)
            pending = self._pending.pop(transfer, None)
            if pending is not None:
                pending.fail(
                    TransferTimeout(
                        f"node {self.node}: {packet.kind} to node "
                        f"{packet.destination} unanswered after "
                        f"{params.DTU_RETX_MAX} retransmits"
                    )
                )
            return
        if self.sim.obs is not None:
            self.sim.obs.instant(
                "retransmit", "dtu", self.node, kind=packet.kind,
                destination=packet.destination, attempt=attempt + 1,
            )
        completion = self.network.send(packet)
        self.retransmits += 1
        self._arm_retx(transfer, completion,
                       int(grace * params.DTU_RETX_BACKOFF), attempt + 1)

    def _settle(self, transfer: int, value: object) -> None:
        """The ack or response for ``transfer`` arrived: stop resending
        it and complete whoever waits for it.  A duplicate answer (a
        re-issued request whose first answer survived after all, a
        re-ack) or one for a wiped transfer finds nothing."""
        self._retx.pop(transfer, None)
        pending = self._pending.pop(transfer, None)
        if pending is not None:
            pending.succeed(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "privileged" if self.privileged else "unprivileged"
        return f"<DTU node={self.node} {state}>"
