"""A network device whose interrupts are DTU messages.

The paper proposes (Section 4.4.2): "device interrupts should be sent
as messages as well to integrate them with the existing concepts.  This
would allow to wait for them as for any other message, interpose them,
sent them to any PE, independent of the core" — but leaves it
unimplemented for lack of devices on the prototype.  This module
implements the idea for the simulation platform.

A :class:`NetworkDevice` (a NIC) occupies a NoC node and holds a small
DTU (endpoints configured by the kernel like any other).  When it raises
an interrupt, its DTU sends a regular message through a send endpoint —
so delivery, ringbuffers, credits, labels, and interposition all come
for free.  Commands arrive as messages and frame data moves through its
memory endpoint.  Two NICs are joined by a :class:`Wire`.
"""

from __future__ import annotations

import typing

from repro.dtu.dtu import DTU, DtuError
from repro.hw.spm import Scratchpad

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network
    from repro.sim import Simulator

#: endpoint the device uses to send its interrupt messages.
IRQ_SEND_EP = 0
#: endpoint on which command messages arrive.
CMD_RECV_EP = 1
#: endpoint for DMA memory access.
DMA_MEM_EP = 2

#: interrupt message payload size.
IRQ_BYTES = 16
#: device-local buffer memory (DMA staging).
BUFFER_BYTES = 4096


class Wire:
    """A point-to-point link between two :class:`NetworkDevice` NICs."""

    def __init__(self, sim: "Simulator", latency_cycles: int = 200,
                 bytes_per_cycle: int = 1):
        self.sim = sim
        self.latency_cycles = latency_cycles
        self.bytes_per_cycle = bytes_per_cycle
        self._ends: list["NetworkDevice"] = []
        self.frames_carried = 0

    def connect(self, a: "NetworkDevice", b: "NetworkDevice") -> None:
        self._ends = [a, b]
        a.wire = self
        b.wire = self

    def transmit(self, sender: "NetworkDevice", frame: bytes) -> None:
        if len(self._ends) != 2:
            raise RuntimeError("wire is not connected at both ends")
        peer = self._ends[1] if self._ends[0] is sender else self._ends[0]
        duration = self.latency_cycles + max(
            1, len(frame) // self.bytes_per_cycle
        )
        self.frames_carried += 1
        self.sim.schedule(duration, lambda _: peer.receive_frame(frame))


class NetworkDevice:
    """A NIC: frames out via DMA + wire, frames in via DMA + interrupt.

    - TX: a ``("tx", mem_offset, length)`` command message makes the NIC
      DMA-read the frame from its memory window and push it on the wire.
    - RX: an arriving frame is DMA-written into the next slot of the RX
      ring inside the same window, then announced with an
      ``("rx", offset, length)`` interrupt message.
    """

    def __init__(self, sim: "Simulator", network: "Network", node: int,
                 name: str = "nic", rx_base: int = 2048, rx_slots: int = 8,
                 rx_slot_bytes: int = 256):
        self.sim = sim
        self.name = name
        self.node = node
        self.buffer = Scratchpad(BUFFER_BYTES, name=f"{name}.buf")
        self.dtu = DTU(sim, network, node, self.buffer)
        self.interrupts_sent = 0
        self.wire: Wire | None = None
        self.rx_base = rx_base
        self.rx_slots = rx_slots
        self.rx_slot_bytes = rx_slot_bytes
        self._rx_next = 0
        self.frames_sent = 0
        self.frames_received = 0
        self._pump = None

    def raise_interrupt(self, payload: object = ()) -> None:
        """Send an interrupt as a plain DTU message.

        Requires the kernel to have configured :data:`IRQ_SEND_EP` to
        point at some receive gate; an unconfigured or credit-less
        endpoint silently drops the interrupt (like a masked IRQ line).
        """
        try:
            self.dtu.send(IRQ_SEND_EP, ("irq", self.name, payload), IRQ_BYTES)
            self.interrupts_sent += 1
        except DtuError:
            pass  # masked: no target or out of credits

    def start(self) -> None:
        """Serve TX commands (after the kernel wired the endpoints)."""
        if self._pump is None:
            self._pump = self.sim.process(self._serve(), f"{self.name}.tx")

    def _serve(self):
        while True:
            slot, message = yield from self.dtu.wait_message(CMD_RECV_EP)
            op, offset, length = message.payload
            bad = op != "tx" or self.wire is None
            # Replying acknowledges the command AND refunds the driver's
            # send credit (Section 4.4.4) — a NIC that only acks starves
            # its command channel after max_credits lifetime commands.
            # Fire-and-forget senders keep the plain-ack behaviour.
            if message.can_reply:
                yield self.dtu.reply(
                    CMD_RECV_EP, slot, ("err" if bad else "ok", op), 16
                )
            else:
                self.dtu.ack_message(CMD_RECV_EP, slot)
            if bad:
                self.raise_interrupt(("error", op))
                continue
            frame = yield from self.dtu.read_memory(DMA_MEM_EP, offset, length)
            self.frames_sent += 1
            self.wire.transmit(self, bytes(frame))
            # The frame left the buffer: the driver may reuse the slot.
            self.raise_interrupt(("txdone", offset))

    def receive_frame(self, frame: bytes) -> None:
        """Wire-side delivery entry point."""
        if len(frame) > self.rx_slot_bytes:
            self.raise_interrupt(("overrun", len(frame)))
            return
        slot = self._rx_next
        self._rx_next = (slot + 1) % self.rx_slots
        offset = self.rx_base + slot * self.rx_slot_bytes

        def dma():
            yield from self.dtu.write_memory(DMA_MEM_EP, offset, frame)
            self.frames_received += 1
            self.raise_interrupt(("rx", offset, len(frame)))

        self.sim.process(dma(), f"{self.name}.rx")

