"""The DTU device model.

Everything PE-external flows through here: message sends, replies,
RDMA-style memory reads/writes, and the privileged remote-configuration
packets through which a kernel exercises NoC-level isolation.

Timing: injection costs :data:`params.DTU_INJECT_CYCLES`; wire time is
the NoC model's job; SPM-side service costs :data:`SPM_ACCESS_CYCLES`.
Transfer durations are charged to the ``xfer`` ledger tag — the
"Xfers" stack of the paper's figures.
"""

from __future__ import annotations

import itertools
import typing

from repro import params
from repro.dtu.message import (
    HEADER_BYTES,
    Message,
    MessageHeader,
    message_crc,
    payload_crc,
)
from repro.dtu.registers import EndpointKind, EndpointRegisters, MemoryPerm
from repro.dtu.ringbuffer import DUPLICATE, RingBuffer
from repro.noc.packet import Packet
from repro.obs.causal import NO_CONTEXT
from repro.sim.events import Event, first_of
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

#: Cycles for the DTU to serve a request against the local SPM.
SPM_ACCESS_CYCLES = 2

#: Wire size of a memory read request / write ack descriptor.
MEM_REQUEST_BYTES = 16


class DtuError(Exception):
    """Base class for DTU-reported failures."""


class MissingCredits(DtuError):
    """Send denied: the endpoint is out of credits (Section 4.4.3)."""


class NoPermission(DtuError):
    """Operation denied: wrong endpoint kind, bounds, or privilege."""


class TransferTimeout(DtuError):
    """A reliable transfer stayed unacknowledged through the whole
    retransmit budget (dead receiver, partitioned NoC), or a
    ``wait_message`` timeout expired."""


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
        #: ringbuffer storage per receive endpoint.
        self._ringbufs: dict[int, RingBuffer] = {}
        #: fired when a message lands in the endpoint's ringbuffer.
        self._signals: dict[int, Signal] = {}
        #: outstanding memory/config transactions awaiting a response.
        self._pending: dict[int, "Event"] = {}
        self._transaction_ids = itertools.count()
        # Event names, built once per DTU rather than once per packet.
        self._delivery_name = f"dtu{node}.delivery"
        self._transaction_name = f"dtu{node}.transaction"
        #: "all DTUs are privileged at boot" (Section 3); the kernel
        #: downgrades application PEs during boot.
        self.privileged = True
        self.messages_sent = 0
        self.messages_dropped = 0
        # -- reliable delivery (opt-in; see enable_reliability) ---------
        self._reliable = False
        self._send_seq = itertools.count()
        #: unacknowledged reliable transmissions, keyed ("msg", seq) for
        #: messages/replies and ("txn", id) for memory/config requests.
        self._retx: dict[tuple, dict] = {}
        self.retransmits = 0
        self.acks_sent = 0
        self.crc_drops = 0
        self.transfer_failures = 0
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
        """Switch this DTU to reliable message delivery.

        Outgoing messages and replies get a sequence number and CRC and
        are retransmitted with exponential backoff until acknowledged
        (hardware acks, :data:`params.DTU_RETX_MAX` attempts); memory
        and configuration requests are re-issued the same way.  When
        the budget is exhausted the DTU reconciles the spent credit and
        fails the transfer with :class:`TransferTimeout` instead of
        leaking endpoint state.  Off by default: the best-effort paths
        are cycle-identical to the calibrated model.
        """
        self._reliable = True

    # ------------------------------------------------------------------
    # Local (software-visible) interface
    # ------------------------------------------------------------------

    def ep(self, index: int) -> EndpointRegisters:
        """Endpoint registers (read-only from the application's view)."""
        if not (0 <= index < len(self.eps)):
            raise ValueError(f"endpoint {index} out of range")
        return self.eps[index]

    def signal(self, ep_index: int) -> Signal:
        """The delivery signal of a receive endpoint (for wait loops)."""
        ep = self.ep(ep_index)
        if ep.kind is not _RECEIVE:
            raise NoPermission(f"EP{ep_index} is not a receive endpoint")
        return self._signals[ep_index]

    def ringbuffer(self, ep_index: int) -> RingBuffer:
        """The ringbuffer of a receive endpoint."""
        ep = self.ep(ep_index)
        if ep.kind is not _RECEIVE:
            raise NoPermission(f"EP{ep_index} is not a receive endpoint")
        return self._ringbufs[ep_index]

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
        if reply_ep is not None:
            reply_regs = (eps[reply_ep] if 0 <= reply_ep < len(eps)
                          else self.ep(reply_ep))
            if reply_regs.kind is not _RECEIVE:
                raise NoPermission(f"reply EP{reply_ep} is not a receive endpoint")
        ep.credits -= 1
        seq, crc = -1, 0
        if self._reliable:
            seq = next(self._send_seq)
            crc = payload_crc(ep.label, length, payload)
        ctx, msg_span = self._stamp_context()
        # Headers and packets are built positionally, in field order,
        # on the per-message paths: keyword binding doubles their cost.
        reply_node, reply_to = ((self.node, reply_ep) if reply_ep is not None
                                else (-1, -1))
        header = MessageHeader(
            ep.label, length, reply_node, reply_to, reply_label, ep_index,
            seq, crc, ctx.trace_id, msg_span,
        )
        packet = Packet(
            self.node, ep.target_node, "message", HEADER_BYTES + length,
            (ep.target_ep, Message(header, payload)), ctx.trace_id, msg_span,
        )
        self.messages_sent += 1
        if not self._reliable:
            done = self._inject(packet)
        else:
            done = self._inject(packet, retx_key=("msg", seq),
                                credit_ep=ep_index)
        if self.sim.obs is not None:
            self._observe_message(packet, done, msg_span, ctx)
        return done

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

    def _reconcile_credit(self, ep_index: int) -> None:
        """Refund the credit of a send that was given up on, so a dead
        receiver (or a permanently lost reply) cannot leak an
        endpoint's credits."""
        ep = self.eps[ep_index]
        if ep.kind is _SEND:
            ep.credits = min(ep.credits + 1, ep.max_credits)

    def reply(
        self, ep_index: int, slot: int, payload: object, length: int
    ) -> "Event":
        """Reply to the message in ``slot`` of receive endpoint ``ep_index``.

        The DTU extracts the destination from the stored message header
        (Section 4.4.4); a reply needs no dedicated channel and carries a
        credit refill for the original sender.  The slot is acknowledged
        (freed) as part of the reply.
        """
        eps = self.eps
        ep = eps[ep_index] if 0 <= ep_index < len(eps) else self.ep(ep_index)
        if ep.kind is not _RECEIVE:
            raise NoPermission(f"EP{ep_index} is not a receive endpoint")
        if not ep.replies_enabled:
            raise NoPermission(f"EP{ep_index} has replies disabled")
        ringbuf = self._ringbufs[ep_index]
        request = ringbuf.peek(slot).header
        if request.reply_node < 0:
            raise NoPermission("original message does not permit a reply")
        seq, crc = -1, 0
        if self._reliable:
            seq = next(self._send_seq)
            crc = payload_crc(request.reply_label, length, payload)
        ctx, msg_span = self._stamp_context()
        # No reply to a reply: reply_node/reply_ep/credit_ep stay -1.
        header = MessageHeader(request.reply_label, length, -1, -1, 0, -1,
                               seq, crc, ctx.trace_id, msg_span)
        packet = Packet(
            self.node, request.reply_node, "reply", HEADER_BYTES + length,
            (request.reply_ep, Message(header, payload), request.credit_ep),
            ctx.trace_id, msg_span,
        )
        ringbuf.ack(slot)
        if not self._reliable:
            done = self._inject(packet)
        else:
            done = self._inject(packet, retx_key=("msg", seq))
        if self.sim.obs is not None:
            self._observe_message(packet, done, msg_span, ctx)
        return done

    def _observe_message(self, packet: Packet, done: "Event",
                         span_id: int = -1, parent=NO_CONTEXT) -> None:
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
            if not event.ok:
                return
            obs.observe("dtu.msg_rtt", self.sim.now - started)
            obs.complete(
                packet.kind, "dtu", self.node, started,
                span_id=span_id, parent=parent,
                destination=packet.destination, bytes=packet.size_bytes,
            )

        done.add_callback(record)

    def fetch_message(self, ep_index: int) -> tuple[int, Message] | None:
        """Poll a receive endpoint: the next unread (slot, message) or None."""
        eps = self.eps
        if 0 <= ep_index < len(eps) and eps[ep_index].kind is _RECEIVE:
            return self._ringbufs[ep_index].fetch()
        return self.ringbuffer(ep_index).fetch()  # raises what is wrong

    def wait_message(self, ep_index: int, timeout: int | None = None):
        """Generator: block until a message is available, then return it.

        Models the paper's polling loop ("the software polls a DTU
        register to wait for received messages", Section 4.3) without
        busy-spinning the simulator.

        ``timeout`` bounds the wait in cycles; expiry raises
        :class:`TransferTimeout`, so callers in fault-prone setups can
        never block forever on a message that will not come.
        """
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        deadline = None if timeout is None else self.sim.now + timeout
        while True:
            fetched = self.fetch_message(ep_index)
            if fetched is not None:
                return fetched
            # fetch_message has just checked the endpoint, so its signal
            # is read without going through signal() again.
            signal = self._signals[ep_index]
            if deadline is None:
                yield signal.wait()
                continue
            remaining = deadline - self.sim.now
            if remaining <= 0:
                raise TransferTimeout(
                    f"no message on EP{ep_index} of node {self.node} "
                    f"within {timeout} cycles"
                )
            yield first_of(self.sim, signal.wait(), self.sim.delay(remaining))

    def ack_message(self, ep_index: int, slot: int) -> None:
        """Free a ringbuffer slot after processing (no reply sent)."""
        self.ringbuffer(ep_index).ack(slot)

    # -- remote memory access ----------------------------------------------

    def read_memory(self, ep_index: int, offset: int, length: int,
                    into_addr: int | None = None):
        """Generator: RDMA-read ``length`` bytes at ``offset`` of a memory EP.

        Returns the data; optionally also deposits it at ``into_addr`` in
        local memory (the common case — "the data register denotes the
        location the read data should be transferred to").
        """
        ep = self._memory_ep(ep_index, offset, length, MemoryPerm.READ)
        data = yield from self._transaction(
            "mem_read", ep.mem_node, MEM_REQUEST_BYTES,
            (ep.mem_addr + offset, length), length, bytes=MEM_REQUEST_BYTES,
        )
        if into_addr is not None:
            self.local_memory.write(into_addr, data)
        return data

    def write_memory(self, ep_index: int, offset: int, data: bytes,
                     from_addr: int | None = None):
        """Generator: RDMA-write ``data`` to ``offset`` of a memory EP.

        When ``from_addr`` is given the bytes are taken from local memory
        instead (``data`` then only conveys the length).
        """
        if from_addr is not None:
            data = self.local_memory.read(from_addr, len(data))
        ep = self._memory_ep(ep_index, offset, len(data), MemoryPerm.WRITE)
        size = MEM_REQUEST_BYTES + len(data)
        yield from self._transaction(
            "mem_write", ep.mem_node, size,
            (ep.mem_addr + offset, bytes(data)), 0, bytes=size,
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
                     payload_tail: tuple, expect_bytes: int, **span_args):
        """Generator: issue the request packet ``(transaction,
        *payload_tail)`` and wait for the response that completes it;
        ``expect_bytes`` is that response's size."""
        transaction = next(self._transaction_ids)
        done = Event(self.sim, self._transaction_name)
        self._pending[transaction] = done
        ctx, txn_span = self._stamp_context()
        packet = Packet(self.node, target, kind, size_bytes,
                        (transaction, *payload_tail), ctx.trace_id, txn_span)
        started = self.sim.now
        self._inject_transaction(packet, transaction, expect_bytes)
        response = yield done
        # Whole round trip (inject + request + service + response) is
        # transfer time from the core's point of view.
        self.sim.ledger.charge(Tag.XFER, self.sim.now - started)
        if self.sim.obs is not None:
            # The round trip as one DTU span; the request and response
            # packets' NoC spans hang off it via the stamp.
            self.sim.obs.complete(
                kind, "dtu", self.node, started, span_id=txn_span,
                parent=ctx, destination=target, **span_args,
            )
        return response

    def _inject_transaction(self, packet: Packet, transaction: int,
                            expect_bytes: int = 0) -> None:
        """Inject a request packet whose response completes a pending
        transaction; reliable DTUs re-issue it until answered.

        Requests are idempotent at the receiver (reads, overwrites,
        register writes), so a duplicate caused by a lost *response* is
        harmless — the duplicate response is dropped at :meth:`handle_packet`.
        ``expect_bytes`` sizes the response the caller is waiting for, so
        the retransmit timer also covers the response's wire time.
        """
        if not self._reliable:
            # Nobody awaits the request's own delivery (the response
            # completes the transaction), so there is no event to
            # trigger for it: after the injection delay the packet
            # simply goes out.
            self.sim.schedule(params.DTU_INJECT_CYCLES, self.network.send,
                              packet)
            return
        self._inject(packet, charge=False, retx_key=("txn", transaction),
                     expect_bytes=expect_bytes)

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
            (self.privileged, operation, args), 0, operation=operation,
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
        if operation == "refill_credits":
            (ep_index,) = args
            ep = self.eps[ep_index]
            ep.credits = ep.max_credits
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
            self.redirect_to = None
            return "ok"
        if operation == "set_reliable":
            (flag,) = args
            self._reliable = bool(flag)
            return "ok"
        raise RuntimeError(f"unknown configuration operation {operation!r}")

    # ------------------------------------------------------------------
    # NoC delivery handling (the hardware side)
    # ------------------------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        """Entry point for packets the NoC delivers to this node."""
        kind = packet.kind
        if packet.corrupted:
            # The link-level CRC catches in-flight bit errors; the
            # packet is discarded here, which a reliable sender observes
            # as a missing ack and retransmits.
            self.crc_drops += 1
            if kind in ("message", "reply"):
                self.messages_dropped += 1
            if self.sim.obs is not None:
                self.sim.obs.count("dtu.crc_drops")
                self.sim.obs.instant("crc_drop", "dtu", self.node,
                                     kind=kind, source=packet.source)
            return
        if self.redirect_to is not None and kind in ("message", "reply"):
            # Live-migration window: software-visible traffic chases the
            # VPE to its new PE.  The source is preserved so the new
            # DTU's hardware ack reaches the original sender.  Acks and
            # memory/config responses are NOT forwarded — they complete
            # transactions this DTU itself still owns.
            self.redirected += 1
            if self.sim.obs is not None:
                self.sim.obs.count("dtu.redirected")
            self.network.send(
                Packet(
                    source=packet.source,
                    destination=self.redirect_to,
                    kind=kind,
                    size_bytes=packet.size_bytes,
                    payload=packet.payload,
                    trace_id=packet.trace_id,
                    trace_parent=packet.trace_parent,
                )
            )
            return
        if kind == "msg_ack":
            # First: on the reliable path every message and reply is
            # answered by one, so it is the most frequent kind.
            (seq,) = packet.payload
            entry = self._retx.pop(("msg", seq), None)
            if entry is not None and not entry["done"]._state:
                entry["done"].succeed()
        elif kind == "message":
            ep_index, message = packet.payload
            self._deliver_message(ep_index, message, credit_ep=None,
                                  source=packet.source)
        elif kind == "reply":
            ep_index, message, credit_ep = packet.payload
            self._deliver_message(ep_index, message, credit_ep=credit_ep,
                                  source=packet.source)
        elif kind == "mem_read":
            transaction, address, length = packet.payload
            data = self.local_memory.read(address, length)
            self._respond_memory(packet.source, transaction, data, len(data),
                                 request=packet)
        elif kind == "mem_write":
            transaction, address, data = packet.payload
            self.local_memory.write(address, bytes(data))
            self._respond_memory(packet.source, transaction, b"", 0,
                                 request=packet)
        elif kind == "mem_resp":
            transaction, data = packet.payload
            self._complete_transaction(transaction, data)
        elif kind == "ep_config":
            transaction, privileged, operation, args = packet.payload
            if privileged:
                result = self._apply_config(operation, args)
            else:
                result = "denied"
            self.network.send(
                Packet(
                    source=self.node,
                    destination=packet.source,
                    kind="config_ack",
                    size_bytes=16,
                    payload=(transaction, result),
                    # The ack inherits the request's trace, completing
                    # the transaction round trip in the causal graph.
                    trace_id=packet.trace_id,
                    trace_parent=packet.trace_parent,
                )
            )
        elif kind == "config_ack":
            transaction, result = packet.payload
            self._complete_transaction(transaction, result)
        else:
            raise RuntimeError(f"DTU at node {self.node} got {packet!r}")

    def _complete_transaction(self, transaction: int, value: object) -> None:
        """Finish a pending memory/config transaction; duplicate
        responses (re-issued requests whose first answer survived after
        all) are dropped silently."""
        self._retx.pop(("txn", transaction), None)
        pending = self._pending.pop(transaction, None)
        if pending is not None and not pending._state:
            pending.succeed(value)

    def _deliver_message(self, ep_index: int, message: Message,
                         credit_ep: int | None, source: int = -1) -> None:
        if message.header.seq >= 0:
            self._deliver_reliable(ep_index, message, credit_ep, source)
            return
        if credit_ep is not None and credit_ep >= 0:
            # A reply refills the original send endpoint's credits.
            sender_ep = self.eps[credit_ep]
            if sender_ep.kind is _SEND:
                sender_ep.credits = min(sender_ep.credits + 1, sender_ep.max_credits)
        ep = self.eps[ep_index] if 0 <= ep_index < len(self.eps) else None
        if ep is None or ep.kind is not _RECEIVE:
            self.messages_dropped += 1
            return
        slot = self._ringbufs[ep_index].push(message)
        if slot is None:
            self.messages_dropped += 1
            return
        self._signals[ep_index].fire()

    def _deliver_reliable(self, ep_index: int, message: Message,
                          credit_ep: int | None, source: int) -> None:
        """Sequence-numbered delivery: CRC check, duplicate suppression,
        hardware ack.  Side effects (ringbuffer push, credit refill)
        happen at most once per sequence number; a message the receiver
        cannot accept is simply not acked, so the sender retransmits
        and eventually reconciles.
        """
        ep = self.eps[ep_index] if 0 <= ep_index < len(self.eps) else None
        if ep is None or ep.kind is not _RECEIVE:
            self.messages_dropped += 1
            return
        if message.header.crc != message_crc(message):
            self.crc_drops += 1
            self.messages_dropped += 1
            return
        slot = self._ringbufs[ep_index].push(message, source=source)
        if slot is DUPLICATE:
            # Already delivered once: the earlier ack was lost. Re-ack
            # without repeating the delivery side effects.
            self._send_ack(source, message.header.seq)
            return
        if slot is None:
            self.messages_dropped += 1  # ring full: flow-control drop
            return
        if credit_ep is not None and credit_ep >= 0:
            sender_ep = self.eps[credit_ep]
            if sender_ep.kind is _SEND:
                sender_ep.credits = min(sender_ep.credits + 1,
                                        sender_ep.max_credits)
        self._send_ack(source, message.header.seq)
        self._signals[ep_index].fire()

    def _send_ack(self, destination: int, seq: int) -> None:
        """Hardware-generated delivery acknowledgement (no core
        involvement, no ledger charge)."""
        self.acks_sent += 1
        if self.sim.obs is not None:
            self.sim.obs.count("dtu.acks_sent")
        self.network.send(Packet(self.node, destination, "msg_ack", 8, (seq,)))

    def _respond_memory(self, requester: int, transaction: int, data: bytes,
                        size: int, request: Packet | None = None) -> None:
        # The response rides the request's trace context, so the RDMA
        # completion's NoC span joins the originating request tree.
        trace_id = request.trace_id if request is not None else -1
        trace_parent = request.trace_parent if request is not None else -1
        self.sim.schedule(
            SPM_ACCESS_CYCLES,
            lambda _: self.network.send(
                Packet(self.node, requester, "mem_resp", size,
                       (transaction, data), trace_id, trace_parent)
            ),
        )

    # ------------------------------------------------------------------

    def _inject(self, packet: Packet, charge: bool = True,
                retx_key: tuple | None = None, credit_ep: int | None = None,
                expect_bytes: int = 0) -> "Event":
        """Queue a packet after the injection delay; return delivery event.

        With ``retx_key`` the transmission is reliable: the returned
        event triggers only once the transfer is acknowledged (or fails
        with :class:`TransferTimeout` after the retransmit budget), and
        the packet is re-sent with exponential backoff until then.
        ``credit_ep`` names the send endpoint whose credit is refunded
        if the DTU gives up.
        """
        done = Event(self.sim, self._delivery_name)
        if charge:
            self.sim.ledger.charge(Tag.XFER, params.DTU_INJECT_CYCLES)
        # A bound method and a tuple, not a closure per packet.
        self.sim.schedule(
            params.DTU_INJECT_CYCLES, self._injected,
            (packet, done, charge, retx_key, credit_ep, expect_bytes),
        )
        return done

    def _injected(self, injection: tuple) -> None:
        """The injection delay has passed: hand the packet to the NoC."""
        packet, done, charge, retx_key, credit_ep, expect_bytes = injection
        completion = self.network.send(packet)
        wire = completion - self.sim.now
        if charge:
            self.sim.ledger.charge(Tag.XFER, wire)
        if retx_key is None:
            self.sim.schedule(wire, done.succeed)
            return
        self._retx[retx_key] = {
            "packet": packet,
            "attempts": 1,
            "done": done,
            "credit_ep": credit_ep,
        }
        # The expected response's own serialisation time counts toward
        # the round trip the timer must not undercut.
        response_wire = -(-expect_bytes // self.network.bytes_per_cycle)
        self._arm_retx(retx_key, completion + response_wire,
                       params.DTU_RETX_TIMEOUT_CYCLES)

    def _arm_retx(self, key: tuple, eta: int, grace: int) -> None:
        """Schedule the retransmit timer for an unacknowledged transfer.

        The timer fires ``grace`` cycles after ``eta`` — the cycle the
        network promised delivery at — so a large packet (whose wire
        time alone exceeds any flat timeout) is never retransmitted
        while it is still legitimately in flight.  ``grace`` covers the
        receiver's turnaround plus the ack's way back and grows by
        :data:`params.DTU_RETX_BACKOFF` per attempt.  An acknowledged
        transfer's timer is deliberately left to fire and find nothing:
        the cycle at which a run's queue drains is simulated output
        (``run_profile`` drains these timers, the benchmark pins the
        result as ``sim_cycles``), so cancelling them would move it.
        """
        self.sim.schedule(max(1, eta - self.sim.now) + grace,
                          self._retx_fire, (key, grace))

    def _retx_fire(self, timer: tuple) -> None:
        key, grace = timer
        entry = self._retx.get(key)
        if entry is None:
            return  # acked (or wiped) in the meantime
        packet = entry["packet"]
        if entry["attempts"] > params.DTU_RETX_MAX:
            del self._retx[key]
            self._give_up(key, packet, entry["credit_ep"])
            if not entry["done"]._state:
                entry["done"].fail(
                    TransferTimeout(
                        f"node {self.node}: {packet.kind} to node "
                        f"{packet.destination} unacknowledged after "
                        f"{params.DTU_RETX_MAX} retransmits"
                    )
                )
            return
        entry["attempts"] += 1
        self.retransmits += 1
        if self.sim.obs is not None:
            self.sim.obs.count("dtu.retransmits")
            self.sim.obs.instant(
                "retransmit", "dtu", self.node, kind=packet.kind,
                destination=packet.destination, attempt=entry["attempts"],
            )
        completion = self.network.send(packet)
        self._arm_retx(key, completion, int(grace * params.DTU_RETX_BACKOFF))

    def _give_up(self, key: tuple, packet: Packet,
                 credit_ep: int | None) -> None:
        """The retransmit budget of ``key`` is spent: fail the pending
        transaction it carried, or refund the send credit it holds."""
        if key[0] == "msg":
            if credit_ep is not None:
                self._reconcile_credit(credit_ep)
            return
        self.transfer_failures += 1
        pending = self._pending.pop(key[1], None)
        if pending is not None and not pending._state:
            pending.fail(
                TransferTimeout(
                    f"node {self.node}: {packet.kind} to node "
                    f"{packet.destination} got no response after "
                    f"{params.DTU_RETX_MAX} retransmits"
                )
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "privileged" if self.privileged else "unprivileged"
        return f"<DTU node={self.node} {state}>"
