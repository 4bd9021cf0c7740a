"""Linux pipes: a bounded kernel buffer with blocking semantics."""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim import Simulator

#: default Linux pipe buffer (16 pages).
PIPE_BUFFER_BYTES = 64 * 1024


class LxPipe:
    """Kernel pipe object: byte FIFO with capacity and waiter queues."""

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.buffer = bytearray()
        self.write_closed = False
        #: open write descriptors (EOF when it reaches zero).
        self.writer_count = 0
        self._space_waiters: list = []
        self._data_waiters: list = []

    @property
    def free_space(self) -> int:
        return PIPE_BUFFER_BYTES - len(self.buffer)

    def push(self, data: bytes) -> int:
        """Store up to the free space; returns bytes accepted."""
        accepted = min(len(data), self.free_space)
        if accepted:
            self.buffer.extend(data[:accepted])
            self._wake(self._data_waiters)
        return accepted

    def pull(self, count: int) -> bytes:
        """Take up to ``count`` bytes from the front."""
        taken = bytes(self.buffer[:count])
        if taken:
            del self.buffer[: len(taken)]
            self._wake(self._space_waiters)
        return taken

    def close_write(self) -> None:
        self.write_closed = True
        self._wake(self._data_waiters)

    # -- blocking ----------------------------------------------------------

    def wait_for_data(self):
        """Event: data available or writer closed."""
        event = self.sim.event("pipe.data")
        if self.buffer or self.write_closed:
            event.succeed()
        else:
            self._data_waiters.append(event)
        return event

    def wait_for_space(self):
        """Event: room in the buffer."""
        event = self.sim.event("pipe.space")
        if self.free_space:
            event.succeed()
        else:
            self._space_waiters.append(event)
        return event

    def _wake(self, waiters: list) -> None:
        pending, waiters[:] = waiters[:], []
        for event in pending:
            event.succeed()
