"""Pipes: a unidirectional data channel over a DRAM ringbuffer.

"On M3, a pipe is a unidirectional data channel between exactly one
writer and exactly one reader.  The data is thereby transferred over a
software-managed ringbuffer in the DRAM ... after writing new data to
the ringbuffer, the writer notifies the reader with a message, which
in turn will read the data from the ringbuffer, after it received the
message. ... after setting up the pipe, the kernel is not involved in
the communication" (Section 4.5.7).

Mechanics: the DRAM ring is divided into ``slots`` chunks.  The writer
RDMA-writes a chunk and sends a notification ``(offset, length)`` to
the reader's receive gate.  The reader consumes the data and *replies*
to the notification — the reply both refills the writer's send-gate
credits and signals that the slot's ring space is free, so the credit
system is exactly the flow control.  A zero-length notification is EOF.
"""

from __future__ import annotations

import typing

from repro import params
from repro.dtu.registers import MemoryPerm
from repro.m3.kernel import syscalls
from repro.m3.lib.gate import MemGate, RecvGate, SendGate
from repro.sim.ledger import Tag

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.m3.lib.env import Env
    from repro.m3.lib.vpe import VPE

#: default geometry: 64 KiB ring in 16 slots of 4 KiB.
DEFAULT_RING_BYTES = 64 * 1024
DEFAULT_SLOTS = 16

#: notification message size (offset + length).
NOTIFY_BYTES = 32


class Pipe:
    """Pipe capabilities, created by one endpoint's VPE.

    The creator keeps one end and delegates the other end's
    capabilities to the peer VPE before starting it.
    """

    def __init__(self, env: "Env", mem_gate: MemGate, rgate_sel: int,
                 sgate_sel: int, ring_bytes: int, slots: int):
        self.env = env
        self.mem_gate = mem_gate
        self.rgate_sel = rgate_sel
        self.sgate_sel = sgate_sel
        self.ring_bytes = ring_bytes
        self.slots = slots

    @classmethod
    def create(cls, env: "Env", ring_bytes: int = DEFAULT_RING_BYTES,
               slots: int = DEFAULT_SLOTS):
        """Generator: allocate the DRAM ring and the notification gates."""
        if ring_bytes % slots:
            raise ValueError("ring size must divide evenly into slots")
        mem_gate = yield from MemGate.create(
            env, ring_bytes, MemoryPerm.RW.value
        )
        rgate_sel = yield from env.syscall(
            syscalls.CREATE_RGATE, NOTIFY_BYTES + 16, slots
        )
        sgate_sel = yield from env.syscall(
            syscalls.CREATE_SGATE, rgate_sel, 0, slots
        )
        return cls(env, mem_gate, rgate_sel, sgate_sel, ring_bytes, slots)

    # -- local endpoints (for the creating VPE) ------------------------------

    def reader(self) -> "PipeReader":
        return PipeReader(self.env, self.mem_gate, self.rgate_sel)

    def writer(self) -> "PipeWriter":
        return PipeWriter(
            self.env, self.mem_gate, self.sgate_sel, self.ring_bytes, self.slots
        )

    # -- delegation to the peer VPE --------------------------------------------

    def delegate_reader(self, vpe: "VPE"):
        """Generator: grant the reader-end capabilities to ``vpe``;
        returns (mem_sel, rgate_sel) for its entry args."""
        mem_sel = yield from vpe.delegate(self.mem_gate.selector)
        rgate_sel = yield from vpe.delegate(self.rgate_sel)
        return (mem_sel, rgate_sel)

    def delegate_writer(self, vpe: "VPE"):
        """Generator: grant the writer-end capabilities to ``vpe``."""
        mem_sel = yield from vpe.delegate(self.mem_gate.selector)
        sgate_sel = yield from vpe.delegate(self.sgate_sel)
        return (mem_sel, sgate_sel, self.ring_bytes, self.slots)


class PipeReader:
    """The consuming end."""

    def __init__(self, env: "Env", mem, rgate_sel: int):
        self.env = env
        self.mem = mem if isinstance(mem, MemGate) else MemGate(env, mem)
        self.rgate = RecvGate(env, rgate_sel)
        self._leftover = b""
        self._eof = False

    @classmethod
    def attach(cls, env: "Env", mem_sel: int, rgate_sel: int):
        """Generator: bind the delegated reader end (activates the gate,
        which also releases any sender blocked in a deferred activate)."""
        reader = cls(env, mem_sel, rgate_sel)
        yield from reader.rgate.activate()
        return reader

    def open(self):
        """Generator: activate the receive gate (creator-side variant)."""
        yield from self.rgate.activate()
        return self

    def read(self, count: int):
        """Generator: up to ``count`` bytes; empty bytes at EOF."""
        if self._leftover:
            data, self._leftover = (
                self._leftover[:count],
                self._leftover[count:],
            )
            return data
        if self._eof:
            return b""
        slot, message = yield from self.rgate.receive()
        yield self.env.sim.delay(params.M3_PIPE_NOTIFY_CYCLES, tag=Tag.OS)
        offset, length = message.payload
        if length == 0:
            self._eof = True
            yield from self.rgate.reply(slot, (), 8)
            return b""
        data = yield from self.mem.read(offset, length)
        # The reply returns the ring space and the sender's credit.
        yield from self.rgate.reply(slot, (), 8)
        if len(data) > count:
            self._leftover = data[count:]
            data = data[:count]
        return data


class PipeWriter:
    """The producing end."""

    def __init__(self, env: "Env", mem, sgate_sel: int, ring_bytes: int,
                 slots: int):
        self.env = env
        self.mem = mem if isinstance(mem, MemGate) else MemGate(env, mem)
        self.sgate = SendGate(env, sgate_sel)
        self.slots = slots
        self.chunk_bytes = ring_bytes // slots
        self._sequence = 0
        self._ack_gate: RecvGate | None = None
        self._outstanding = 0
        self._closed = False

    @classmethod
    def attach(cls, env: "Env", mem_sel: int, sgate_sel: int,
               ring_bytes: int, slots: int):
        """Generator: bind the delegated writer end."""
        writer = cls(env, mem_sel, sgate_sel, ring_bytes, slots)
        yield from writer._setup()
        return writer

    def open(self):
        """Generator: creator-side setup."""
        yield from self._setup()
        return self

    def _setup(self):
        # A dedicated gate for consumption acknowledgements, so they
        # never mix with syscall/service replies on the standard EP.
        self._ack_gate = yield from RecvGate.create(
            self.env, slot_size=32, slot_count=self.slots
        )

    def _drain_one(self):
        """Generator: absorb one pending ack (refills one credit)."""
        slot, _ack = yield from self._ack_gate.receive()
        self._ack_gate.ack(slot)
        self._outstanding -= 1

    def write(self, data: bytes):
        """Generator: push all of ``data`` through the pipe."""
        if self._closed:
            raise RuntimeError("pipe writer is closed")
        view = memoryview(bytes(data))
        sent = 0
        while sent < len(view):
            chunk = bytes(view[sent : sent + self.chunk_bytes])
            yield from self._send_chunk(chunk)
            sent += len(chunk)
        return sent

    def _send_chunk(self, chunk: bytes):
        # Block while the ring is full: every in-flight notification
        # covers one slot, so slot exhaustion == ring exhaustion.
        while self._outstanding >= self.slots:
            yield from self._drain_one()
        offset = (self._sequence % self.slots) * self.chunk_bytes
        self._sequence += 1
        yield self.env.sim.delay(params.M3_PIPE_NOTIFY_CYCLES, tag=Tag.OS)
        yield from self.mem.write(offset, chunk)
        yield from self.sgate.send(
            (offset, len(chunk)), NOTIFY_BYTES, reply_gate=self._ack_gate
        )
        self._outstanding += 1

    def close(self):
        """Generator: signal EOF, then wait until the reader consumed
        everything."""
        if self._closed:
            return
        while self._outstanding >= self.slots:
            yield from self._drain_one()
        yield from self.sgate.send((0, 0), NOTIFY_BYTES,
                                   reply_gate=self._ack_gate)
        self._outstanding += 1
        while self._outstanding > 0:
            yield from self._drain_one()
        self._closed = True
