"""Syscall traces and their replayers.

The paper's methodology for tar/untar/find/sqlite (Section 5.6): record
the syscalls of a BusyBox run, then replay them — natively on Linux,
through the corresponding libm3 API on M3, with ``wait`` entries for
computation and unsupported syscalls ("we assume that computation and
the unsupported syscalls require the same time on both systems").

A trace is a list of :class:`TraceOp` tuples.  File descriptors are
symbolic: the i-th ``open`` in the trace defines descriptor slot ``i``,
and later operations reference slots.
"""

from __future__ import annotations

import typing

from repro import params
from repro.workloads.data import deterministic_bytes


class TraceOp(typing.NamedTuple):
    """One recorded syscall (or wait)."""

    op: str  # open|read|write|close|seek|stat|mkdir|unlink|readdir|sendfile|wait
    args: tuple

    @classmethod
    def make(cls, op: str, *args) -> "TraceOp":
        return cls(op, args)


#: open-mode constants shared by both replayers (numerically identical
#: to OpenFlags and the Linux O_* values used here).
MODE_R = 1
MODE_W = 2
MODE_CREATE = 4
MODE_TRUNC = 8


class LinuxReplayer:
    """Replays a trace against an :class:`~repro.linuxsim.machine.LxEnv`."""

    def __init__(self, lx_env):
        self.lx = lx_env
        self.fds: list[int] = []

    def replay(self, trace: list[TraceOp]):
        """Generator: execute every op in order."""
        lx = self.lx
        for op, args in trace:
            if op == "open":
                path, mode = args
                fd = yield from lx.open(path, mode)
                self.fds.append(fd)
            elif op == "read":
                slot, count = args
                yield from lx.read(self.fds[slot], count)
            elif op == "write":
                slot, count = args
                data = deterministic_bytes(f"w{slot}", count)
                yield from lx.write(self.fds[slot], data)
            elif op == "seek":
                slot, offset, whence = args
                yield from lx.lseek(self.fds[slot], offset, whence)
            elif op == "close":
                (slot,) = args
                yield from lx.close(self.fds[slot])
            elif op == "stat":
                (path,) = args
                yield from lx.stat(path)
            elif op == "mkdir":
                (path,) = args
                yield from lx.mkdir(path)
            elif op == "unlink":
                (path,) = args
                yield from lx.unlink(path)
            elif op == "readdir":
                (path,) = args
                yield from lx.readdir(path)
            elif op == "sendfile":
                out_slot, in_slot, count = args
                yield from lx.sendfile(
                    self.fds[out_slot], self.fds[in_slot], count
                )
            elif op == "wait":
                (cycles,) = args
                yield lx.compute(cycles)
            else:
                raise ValueError(f"unknown trace op {op!r}")
        return ()


class M3Replayer:
    """Replays a trace through libm3 ("the corresponding API on M3").

    ``sendfile`` has no M3 equivalent; it becomes a read/write loop
    with a large SPM buffer (the libm3-idiomatic way to copy data).
    """

    def __init__(self, env, buffer_bytes: int = params.REPLAY_BUFFER_BYTES):
        self.env = env
        self.buffer_bytes = buffer_bytes
        self.files: list = []

    def replay(self, trace: list[TraceOp]):
        """Generator: execute every op in order."""
        env = self.env
        for op, args in trace:
            if op == "open":
                path, mode = args
                file = yield from env.vfs.open(path, mode)
                self.files.append(file)
            elif op == "read":
                slot, count = args
                yield from self.files[slot].read(count)
            elif op == "write":
                slot, count = args
                data = deterministic_bytes(f"w{slot}", count)
                yield from self.files[slot].write(data)
            elif op == "seek":
                slot, offset, whence = args
                yield from self.files[slot].seek(offset, whence)
            elif op == "close":
                (slot,) = args
                yield from self.files[slot].close()
            elif op == "stat":
                (path,) = args
                yield from env.vfs.stat(path)
            elif op == "mkdir":
                (path,) = args
                yield from env.vfs.mkdir(path)
            elif op == "unlink":
                (path,) = args
                yield from env.vfs.unlink(path)
            elif op == "readdir":
                (path,) = args
                yield from env.vfs.readdir(path)
            elif op == "sendfile":
                out_slot, in_slot, count = args
                yield from self._copy_loop(
                    self.files[out_slot], self.files[in_slot], count
                )
            elif op == "wait":
                (cycles,) = args
                yield env.compute(cycles)
            else:
                raise ValueError(f"unknown trace op {op!r}")
        return ()

    def _copy_loop(self, out_file, in_file, count: int):
        remaining = count
        while remaining > 0:
            chunk = yield from in_file.read(min(self.buffer_bytes, remaining))
            if not chunk:
                break
            yield from out_file.write(chunk)
            remaining -= len(chunk)
