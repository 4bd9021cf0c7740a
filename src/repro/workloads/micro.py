"""Figure 3's four operations, written once per OS model.

The paper's microbenchmarks (Section 5.3) are a null system call,
reading a file, writing a file and a pipe transfer; Section 5.6 runs
its workloads "using the same code for M3 and Linux, except for
programming against libm3".  Every eval that performs one of these
operations drives the generators here, so all of them measure the
same program.  ``m3_*`` run on a libm3 ``Env``, ``lx_*`` on a Linux
``LxEnv``; each caller keeps its own sizes and its measured window.
"""

from __future__ import annotations

import functools

from repro.linuxsim.machine import O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY
from repro.m3.kernel import syscalls
from repro.m3.lib.file import OpenFlags
from repro.m3.lib.pipe import Pipe, PipeWriter
from repro.m3.lib.vpe import VPE


def _drain(read, buffer: int):
    """Generator: ``read(buffer)`` to EOF; returns the chunks joined."""
    data = bytearray()
    while True:
        chunk = yield from read(buffer)
        if not chunk:
            return bytes(data)
        data += chunk


# -- M3 (libm3) ---------------------------------------------------------------


def m3_syscalls(env, n: int):
    """Generator: ``n`` null system calls."""
    for _ in range(n):
        yield from env.syscall(syscalls.NOOP)


def m3_drain(source, buffer: int):
    """Generator: read a ``File`` or ``PipeReader`` to EOF in
    ``buffer``-byte reads; returns what it read."""
    return (yield from _drain(source.read, buffer))


def m3_read(env, path: str, buffer: int):
    """Generator: open ``path``, read it to EOF, close it; returns its
    content."""
    file = yield from env.vfs.open(path, OpenFlags.R)
    data = yield from m3_drain(file, buffer)
    yield from file.close()
    return data


def m3_write(env, path: str, payload: bytes, total: int):
    """Generator: create ``path`` and write ``payload`` to it until
    ``total`` bytes are written."""
    file = yield from env.vfs.open(path, OpenFlags.W | OpenFlags.CREATE)
    for _ in range(0, total, len(payload)):
        yield from file.write(payload)
    yield from file.close()


def m3_pipe(env, payload: bytes, total: int, slots: int = 1):
    """Generator: a pipe whose ring holds ``slots`` payloads, and a VPE
    named ``"writer"`` that writes ``payload`` into it until ``total``
    bytes are written, then closes it.  Returns ``(reader, writer_vpe)``
    with the reader end open: the caller drains it and waits for the VPE."""

    def writer_main(env, mem_sel, sgate_sel, ring_bytes, slot_count):
        writer = yield from PipeWriter.attach(env, mem_sel, sgate_sel,
                                              ring_bytes, slot_count)
        for _ in range(0, total, len(payload)):
            yield from writer.write(payload)
        yield from writer.close()
        return ()

    pipe = yield from Pipe.create(env, ring_bytes=len(payload) * slots,
                                  slots=slots)
    vpe = yield from VPE.create(env, "writer")
    args = yield from pipe.delegate_writer(vpe)
    yield from vpe.run(writer_main, *args)
    reader = yield from pipe.reader().open()
    return reader, vpe


# -- Linux --------------------------------------------------------------------


def lx_syscalls(lx, n: int):
    """Generator: ``n`` null system calls."""
    for _ in range(n):
        yield from lx.null_syscall()


def lx_read(lx, path: str, buffer: int):
    """Generator: open ``path``, read it to EOF, close it; returns its
    content."""
    fd = yield from lx.open(path, O_RDONLY)
    data = yield from _drain(functools.partial(lx.read, fd), buffer)
    yield from lx.close(fd)
    return data


def lx_write(lx, path: str, payload: bytes, total: int):
    """Generator: create or truncate ``path`` and write ``payload`` to
    it until ``total`` bytes are written."""
    fd = yield from lx.open(path, O_WRONLY | O_CREAT | O_TRUNC)
    for _ in range(0, total, len(payload)):
        yield from lx.write(fd, payload)
    yield from lx.close(fd)


def lx_pipe(lx, payload: bytes, total: int):
    """Generator: fork a child that writes ``payload`` into a pipe until
    ``total`` bytes are written; read the pipe to EOF in
    ``len(payload)``-byte reads and reap the child.  Returns what the
    parent read."""

    def writer_main(lx, write_fd):
        for _ in range(0, total, len(payload)):
            yield from lx.write(write_fd, payload)
        yield from lx.close(write_fd)
        return ()

    read_fd, write_fd = yield from lx.pipe()
    child = yield from lx.fork(writer_main, write_fd)
    yield from lx.close(write_fd)
    data = yield from _drain(functools.partial(lx.read, read_fd),
                             len(payload))
    yield from lx.close(read_fd)
    yield from lx.waitpid(child)
    return data
