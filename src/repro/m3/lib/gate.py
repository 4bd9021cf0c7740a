"""Gates: libm3's communication and memory-access abstraction.

"M3 provides three different kinds of gates: receive gates to receive
messages, send gates to send messages to receive gates and memory
gates to access remote memory" (Section 4.5.4).  A gate holds a
capability selector; before use, libm3 binds it to a DTU endpoint
through the endpoint multiplexer (an ``activate`` syscall when the
binding is missing).
"""

from __future__ import annotations

import typing

from repro.m3.lib.marshalling import wire_size

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.m3.lib.env import Env


class Gate:
    """Base: a capability selector plus (maybe) a bound endpoint."""

    pinned = False

    def __init__(self, env: "Env", selector: int):
        self.env = env
        self.selector = selector
        self.ep: int | None = None

    def activate(self):
        """Generator: ensure an endpoint is configured for this gate."""
        return (yield from self.env.epmux.acquire(self))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = f"ep={self.ep}" if self.ep is not None else "unbound"
        return f"<{type(self).__name__} sel={self.selector} {bound}>"


class SendGate(Gate):
    """Permission to send messages to one receive gate."""

    def send(self, payload: object, length: int | None = None,
             reply_gate: "RecvGate | None" = None, reply_label: int = 0):
        """Generator: transmit ``payload``; returns once injected."""
        ep = self.ep
        if ep is None:
            ep = yield from self.activate()
        else:  # bound: the multiplexer's LRU touch, without its frames
            epmux = self.env.epmux
            epmux.use_clock += 1
            epmux.last_use[ep] = epmux.use_clock
        reply_ep = None
        if reply_gate is not None:
            # receive gates are pinned: the LRU never weighs them
            reply_ep = reply_gate.ep
            if reply_ep is None:
                reply_ep = yield from reply_gate.activate()
        size = length if length is not None else wire_size(payload)
        return self.env.dtu.send(
            ep, payload, size, reply_ep=reply_ep, reply_label=reply_label
        )

    def call(self, payload: object, reply_gate: "RecvGate",
             length: int | None = None):
        """Generator: send and wait for the reply (the common RPC shape —
        "most abstractions of libm3 combine the send operation with
        waiting for the reply", Section 4.5.6)."""
        yield from self.send(payload, length, reply_gate=reply_gate)
        slot, message = yield from reply_gate.receive()
        reply_gate.ack(slot)
        return message


class RecvGate(Gate):
    """A message reception point bound to a receive endpoint.

    Receive gates are pinned to their endpoint: "they are more
    difficult to move" (Section 4.5.4 footnote), so the multiplexer
    never evicts them.
    """

    pinned = True

    def __init__(self, env: "Env", selector: int, slot_size: int,
                 slot_count: int):
        super().__init__(env, selector)
        self.slot_size = slot_size
        self.slot_count = slot_count

    @classmethod
    def create(cls, env: "Env", slot_size: int = 256, slot_count: int = 8):
        """Generator: create + activate a fresh receive gate."""
        from repro.m3.kernel import syscalls

        selector = yield from env.syscall(
            syscalls.CREATE_RGATE, slot_size, slot_count
        )
        gate = cls(env, selector, slot_size, slot_count)
        yield from gate.activate()
        return gate

    def receive(self):
        """Generator: block until a message arrives; returns (slot, msg)."""
        if self.ep is None:
            yield from self.activate()
        return (yield from self.env.dtu.wait_message(self.ep))

    def fetch(self):
        """Non-blocking poll; (slot, message) or None."""
        if self.ep is None:
            return None
        return self.env.dtu.fetch_message(self.ep)

    def reply(self, slot: int, payload: object, length: int | None = None):
        """Generator: reply to the message in ``slot`` (frees the slot)."""
        size = length if length is not None else wire_size(payload)
        yield self.env.dtu.reply(self.ep, slot, payload, size)

    def ack(self, slot: int) -> None:
        """Free a slot without replying."""
        self.env.dtu.ack_message(self.ep, slot)


class BoundRecvGate(RecvGate):
    """Wraps an endpoint the kernel configured directly (e.g. the
    standard reply endpoint every VPE gets at creation)."""

    def __init__(self, env: "Env", ep_index: int):
        registers = env.pe.dtu.ep(ep_index)
        super().__init__(env, selector=-1, slot_size=registers.slot_size,
                         slot_count=registers.slot_count)
        self.ep = ep_index


class MemGate(Gate):
    """Access to a region of remote memory via a memory endpoint."""

    def __init__(self, env: "Env", selector: int, size: int | None = None):
        super().__init__(env, selector)
        #: region size, when known client-side (bounds are enforced by
        #: the DTU regardless).
        self.size = size

    @classmethod
    def create(cls, env: "Env", size: int, perm_value: int):
        """Generator: allocate a DRAM region and wrap its capability."""
        selector = yield from env.request_mem(size, perm_value)
        return cls(env, selector, size)

    def derive(self, offset: int, size: int, perm_value: int):
        """Generator: a sub-region gate (derive_mem syscall)."""
        from repro.m3.kernel import syscalls

        selector = yield from self.env.syscall(
            syscalls.DERIVE_MEM, self.selector, offset, size, perm_value
        )
        return MemGate(self.env, selector, size)

    def read(self, offset: int, length: int, into_addr: int | None = None):
        """Generator: RDMA-read bytes from the region; returns a
        read-only bytes-like object (``bytes | memoryview``, see
        :meth:`repro.hw.spm.Scratchpad.read`).

        When the environment runs in ``spin_io`` mode (the Figure 6
        methodology: "we replaced the reading/writing from/to the DRAM
        with a spinning loop of the same time"), the transfer is
        replaced by an equal-duration spin and zero bytes are returned.
        """
        if getattr(self.env, "spin_io", False):
            yield self.env.sim.delay(_spin_cycles(length), tag="xfer")
            return bytes(length)
        ep = self.ep
        if ep is None:
            ep = yield from self.activate()
        else:  # bound: the multiplexer's LRU touch, without its frames
            epmux = self.env.epmux
            epmux.use_clock += 1
            epmux.last_use[ep] = epmux.use_clock
        return (
            yield from self.env.dtu.read_memory(ep, offset, length, into_addr)
        )

    def write(self, offset: int, data: bytes, from_addr: int | None = None):
        """Generator: RDMA-write bytes into the region (see :meth:`read`
        for ``spin_io`` mode)."""
        if getattr(self.env, "spin_io", False):
            yield self.env.sim.delay(_spin_cycles(len(data)), tag="xfer")
            return len(data)
        ep = self.ep
        if ep is None:
            ep = yield from self.activate()
        else:  # bound: the multiplexer's LRU touch, without its frames
            epmux = self.env.epmux
            epmux.use_clock += 1
            epmux.last_use[ep] = epmux.use_clock
        return (
            yield from self.env.dtu.write_memory(ep, offset, data, from_addr)
        )


def _spin_cycles(nbytes: int) -> int:
    """Duration a DRAM transfer of ``nbytes`` would have taken (used by
    the scalability experiment's spin substitution)."""
    from repro import params

    wire = max(1, nbytes) / params.DTU_BYTES_PER_CYCLE
    overhead = (
        2 * params.DTU_INJECT_CYCLES
        + 4 * params.NOC_HOP_CYCLES
        + params.DRAM_ACCESS_CYCLES
    )
    return int(wire + overhead)
