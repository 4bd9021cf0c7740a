"""Integration tests for the Linux baseline machine."""

import inspect

import pytest

from repro import params
from repro.linuxsim.fs import LxFsError
from repro.linuxsim.machine import (
    LinuxMachine,
    LxEnv,
    O_CREAT,
    O_RDONLY,
    O_TRUNC,
    O_WRONLY,
)


def test_null_syscall_costs_410_on_xtensa():
    machine = LinuxMachine()

    def program(lx):
        start = lx.sim.now
        yield from lx.null_syscall()
        return lx.sim.now - start

    assert machine.run_program(program) == params.LINUX_XTENSA.syscall_cycles


def test_null_syscall_costs_320_on_arm():
    machine = LinuxMachine(costs=params.LINUX_ARM)

    def program(lx):
        start = lx.sim.now
        yield from lx.null_syscall()
        return lx.sim.now - start

    assert machine.run_program(program) == 320


def test_file_write_read_roundtrip():
    machine = LinuxMachine()
    payload = bytes(range(256)) * 32

    def program(lx):
        fd = yield from lx.open("/f", O_WRONLY | O_CREAT)
        yield from lx.write(fd, payload)
        yield from lx.close(fd)
        fd = yield from lx.open("/f", O_RDONLY)
        data = bytearray()
        while True:
            chunk = yield from lx.read(fd, 4096)
            if not chunk:
                break
            data.extend(chunk)
        yield from lx.close(fd)
        return bytes(data)

    assert machine.run_program(program) == payload


def test_read_cost_decomposition_per_4k_block():
    """Section 5.4's read() numbers: enter/leave + fd/security + page
    cache + the memcpy of one block."""
    machine = LinuxMachine()
    costs = machine.costs

    def program(lx):
        fd = yield from lx.open("/f", O_WRONLY | O_CREAT)
        yield from lx.write(fd, b"z" * 4096)
        yield from lx.close(fd)
        fd = yield from lx.open("/f", O_RDONLY)
        start = lx.sim.now
        yield from lx.read(fd, 4096)
        return lx.sim.now - start

    elapsed = machine.run_program(program)
    expected = (
        costs.syscall_enter_leave_cycles
        + costs.fd_lookup_checks_cycles
        + costs.page_cache_op_cycles
        + machine.copy_cycles(4096)
    )
    assert elapsed == expected


def test_write_zeroes_fresh_blocks_only():
    machine = LinuxMachine()

    def timed_write(lx, fd, data):
        start = lx.sim.now
        yield from lx.write(fd, data)
        return lx.sim.now - start

    def program(lx):
        fd = yield from lx.open("/f", O_WRONLY | O_CREAT)
        first = yield from timed_write(lx, fd, b"a" * 4096)
        yield from lx.lseek(fd, 0)
        second = yield from timed_write(lx, fd, b"b" * 4096)  # overwrite
        return first, second

    first, second = machine.run_program(program)
    assert first - second == machine.zero_cycles(4096)


def test_warm_cache_machine_is_faster():
    def program(lx):
        fd = yield from lx.open("/f", O_WRONLY | O_CREAT)
        yield from lx.write(fd, b"d" * (256 * 1024))
        yield from lx.close(fd)
        fd = yield from lx.open("/f", O_RDONLY)
        while (yield from lx.read(fd, 4096)):
            pass
        return lx.sim.now

    cold = LinuxMachine(warm_cache=False).run_program(program)
    warm = LinuxMachine(warm_cache=True).run_program(program)
    assert warm < cold


def test_lseek_and_stat():
    machine = LinuxMachine()

    def program(lx):
        fd = yield from lx.open("/f", O_WRONLY | O_CREAT)
        yield from lx.write(fd, b"0123456789")
        yield from lx.lseek(fd, 2)
        yield from lx.write(fd, b"AB")
        yield from lx.close(fd)
        stat = yield from lx.stat("/f")
        fd = yield from lx.open("/f", O_RDONLY)
        data = yield from lx.read(fd, 100)
        return stat, data

    stat, data = machine.run_program(program)
    assert stat == ("file", 10, 1)
    assert data == b"01AB456789"


def test_open_missing_without_creat_fails():
    machine = LinuxMachine()

    def program(lx):
        try:
            yield from lx.open("/missing", O_RDONLY)
        except LxFsError as exc:
            return str(exc)

    assert "ENOENT" in machine.run_program(program)


def test_trunc_flag():
    machine = LinuxMachine()

    def program(lx):
        fd = yield from lx.open("/f", O_WRONLY | O_CREAT)
        yield from lx.write(fd, b"long old content")
        yield from lx.close(fd)
        fd = yield from lx.open("/f", O_WRONLY | O_TRUNC)
        yield from lx.write(fd, b"new")
        yield from lx.close(fd)
        return (yield from lx.stat("/f"))[1]

    assert machine.run_program(program) == 3


def test_pipe_between_forked_processes():
    machine = LinuxMachine()
    payload = b"through the kernel pipe!" * (5 * 64 * 1024 // 24)  # several pipe buffers

    def child(lx, write_fd):
        yield from lx.write(write_fd, payload)
        yield from lx.close(write_fd)
        return "done"

    def program(lx):
        read_fd, write_fd = yield from lx.pipe()
        child_env = yield from lx.fork(child, write_fd)
        # Parent must drop its copy of the write end for EOF to appear.
        yield from lx.close(write_fd)
        data = bytearray()
        while True:
            chunk = yield from lx.read(read_fd, 4096)
            if not chunk:
                break
            data.extend(chunk)
        result = yield from lx.waitpid(child_env)
        return bytes(data), result

    data, result = machine.run_program(program)
    # Five pipe buffers only get through if the two time-share the CPU.
    assert data == payload
    assert result == "done"


def test_sendfile_copies_without_user_crossing(monkeypatch):
    machine = LinuxMachine()
    payload = b"S" * (64 * 1024)
    calls = []

    def counted(name, syscall):
        def call(lx, *args, **kwargs):
            calls.append(name)
            return syscall(lx, *args, **kwargs)
        return call

    # LxEnv's system calls are its public generators: each one call is
    # one crossing into the kernel.
    for name, syscall in list(vars(LxEnv).items()):
        if not name.startswith("_") and inspect.isgeneratorfunction(syscall):
            monkeypatch.setattr(LxEnv, name, counted(name, syscall))

    def program(lx):
        fd = yield from lx.open("/src", O_WRONLY | O_CREAT)
        yield from lx.write(fd, payload)
        yield from lx.close(fd)
        src = yield from lx.open("/src", O_RDONLY)
        dst = yield from lx.open("/dst", O_WRONLY | O_CREAT)
        calls.clear()
        yield from lx.sendfile(dst, src, len(payload))
        syscalls = list(calls)
        yield from lx.close(src)
        yield from lx.close(dst)
        return syscalls, (yield from lx.stat("/dst"))[1]

    syscalls, size = machine.run_program(program)
    assert syscalls == ["sendfile"]  # no read / write of its own
    assert size == len(payload)
    assert bytes(machine.fs.lookup("/dst").data) == payload


def test_fork_charges_fork_cost_and_runs_child():
    machine = LinuxMachine()

    def child(lx):
        yield lx.compute(100)
        return 42

    def program(lx):
        start = lx.sim.now
        child_env = yield from lx.fork(child)
        fork_cost = lx.sim.now - start
        result = yield from lx.waitpid(child_env)
        return fork_cost, result

    fork_cost, result = machine.run_program(program)
    assert fork_cost == machine.costs.fork_cycles
    assert result == 42


def test_mkdir_readdir_unlink_namespace_ops():
    machine = LinuxMachine()

    def program(lx):
        yield from lx.mkdir("/dir")
        fd = yield from lx.open("/dir/f", O_WRONLY | O_CREAT)
        yield from lx.close(fd)
        names = yield from lx.readdir("/dir")
        yield from lx.unlink("/dir/f")
        after = yield from lx.readdir("/dir")
        return names, after

    assert machine.run_program(program) == (["f"], [])
