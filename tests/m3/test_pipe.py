"""Integration tests for pipes (DRAM ringbuffer + message synchronisation)."""

import pytest

from repro.m3.lib.pipe import Pipe, PipeReader, PipeWriter
from repro.m3.lib.vpe import VPE


def _pipe_roundtrip(system, payload, read_chunk=4096, ring_bytes=64 * 1024,
                    slots=16):
    """Parent reads, child writes; returns what the parent read."""

    def child_writer(env, mem_sel, sgate_sel, ring, slot_count):
        writer = yield from PipeWriter.attach(env, mem_sel, sgate_sel, ring,
                                              slot_count)
        yield from writer.write(payload)
        yield from writer.close()
        return ()

    def parent(env):
        pipe = yield from Pipe.create(env, ring_bytes=ring_bytes, slots=slots)
        child = yield from VPE.create(env, "writer")
        args = yield from pipe.delegate_writer(child)
        yield from child.run(child_writer, *args)
        reader = yield from pipe.reader().open()
        data = bytearray()
        while True:
            chunk = yield from reader.read(read_chunk)
            if not chunk:
                break
            data.extend(chunk)
        yield from child.wait()
        return bytes(data)

    return system.run_app(parent, name="parent")


def test_pipe_roundtrip_small(system):
    assert _pipe_roundtrip(system, b"hello through the pipe") == \
        b"hello through the pipe"


def test_pipe_roundtrip_large(system):
    payload = bytes(range(256)) * 1024  # 256 KiB, many ring wraps
    assert _pipe_roundtrip(system, payload) == payload


def test_pipe_larger_than_ring_forces_flow_control(system):
    """Data far larger than the ring: the writer must block on credits."""
    payload = b"F" * (8 * 1024)
    assert _pipe_roundtrip(system, payload, ring_bytes=2048, slots=4) == payload


def test_pipe_small_reads_use_leftover_buffer(system):
    payload = b"0123456789" * 100
    assert _pipe_roundtrip(system, payload, read_chunk=7) == payload


def test_pipe_eof_is_sticky(system):
    def child_writer(env, mem_sel, sgate_sel, ring, slot_count):
        writer = yield from PipeWriter.attach(env, mem_sel, sgate_sel, ring,
                                              slot_count)
        yield from writer.write(b"x")
        yield from writer.close()
        return ()

    def parent(env):
        pipe = yield from Pipe.create(env)
        child = yield from VPE.create(env, "writer")
        args = yield from pipe.delegate_writer(child)
        yield from child.run(child_writer, *args)
        reader = yield from pipe.reader().open()
        first = yield from reader.read(10)
        eof1 = yield from reader.read(10)
        eof2 = yield from reader.read(10)
        yield from child.wait()
        return first, eof1, eof2

    assert system.run_app(parent) == (b"x", b"", b"")


def test_pipe_parent_writes_child_reads(system):
    """The reverse direction: the creator holds the writer end."""
    payload = b"downstream data " * 500

    def child_reader(env, mem_sel, rgate_sel):
        reader = yield from PipeReader.attach(env, mem_sel, rgate_sel)
        data = bytearray()
        while True:
            chunk = yield from reader.read(4096)
            if not chunk:
                break
            data.extend(chunk)
        return bytes(data)

    def parent(env):
        pipe = yield from Pipe.create(env)
        child = yield from VPE.create(env, "reader")
        args = yield from pipe.delegate_reader(child)
        yield from child.run(child_reader, *args)
        writer = yield from pipe.writer().open()
        yield from writer.write(payload)
        yield from writer.close()
        return (yield from child.wait())

    assert system.run_app(parent) == payload


def test_pipe_kernel_not_involved_after_setup(system):
    """"after setting up the pipe, the kernel is not involved" — count
    syscalls during the transfer phase."""
    payload = b"y" * (64 * 1024)
    counts = {}

    def child_writer(env, mem_sel, sgate_sel, ring, slot_count):
        writer = yield from PipeWriter.attach(env, mem_sel, sgate_sel, ring,
                                              slot_count)
        counts["start"] = system.kernel.syscall_count
        yield from writer.write(payload)
        counts["after_write"] = system.kernel.syscall_count
        yield from writer.close()
        return ()

    def parent(env):
        pipe = yield from Pipe.create(env)
        child = yield from VPE.create(env, "writer")
        args = yield from pipe.delegate_writer(child)
        yield from child.run(child_writer, *args)
        reader = yield from pipe.reader().open()
        while True:
            chunk = yield from reader.read(4096)
            if not chunk:
                break
        yield from child.wait()
        return ()

    system.run_app(parent)
    # At most the lazy endpoint activations (bounded by EP count), not
    # one syscall per chunk (16 chunks here).
    assert counts["after_write"] - counts["start"] <= 3


def test_pipe_invalid_geometry_rejected(system):
    def parent(env):
        try:
            yield from Pipe.create(env, ring_bytes=1000, slots=16)
        except ValueError as exc:
            return str(exc)

    assert "divide" in system.run_app(parent)
