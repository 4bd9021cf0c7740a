"""The Linux machine and its process environment.

:class:`LxEnv` is the Linux counterpart of libm3's ``Env``: the object
simulated programs receive, exposing syscalls whose costs follow the
paper's published decomposition.  All processes share one time-shared
core (:class:`~repro.linuxsim.cpu.Cpu`).
"""

from __future__ import annotations

import math
import typing

from repro import params
from repro.linuxsim.cpu import Cpu
from repro.linuxsim.fs import LxFsError, TmpFs
from repro.linuxsim.pipe import LxPipe
from repro.sim import Simulator
from repro.sim.ledger import Tag

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.process import Process

#: open(2) flag values for the baseline (mirrors OpenFlags numerically).
O_RDONLY = 1
O_WRONLY = 2
O_CREAT = 4
O_TRUNC = 8


class _Descriptor:
    """One open-file-table entry."""

    def __init__(self, kind: str, node=None, pipe: LxPipe | None = None):
        self.kind = kind  # "file" | "pipe_r" | "pipe_w"
        self.node = node
        self.pipe = pipe
        self.position = 0


class LinuxMachine:
    """One simulated Linux box: a core, a tmpfs, and processes."""

    def __init__(self, costs: params.LinuxCosts = params.LINUX_XTENSA,
                 warm_cache: bool = False):
        self.sim = Simulator()
        self.costs = costs
        #: True models the miss-free "Lx-$" configuration.
        self.warm_cache = warm_cache
        self.cpu = Cpu(self.sim, costs.context_switch_cycles)
        self.fs = TmpFs()

    # -- bandwidth model ------------------------------------------------------

    def copy_cycles(self, nbytes: int) -> int:
        """memcpy duration: miss-limited unless the cache is warm."""
        if nbytes <= 0:
            return 0
        bandwidth = (
            self.costs.memcpy_nomiss_bytes_per_cycle
            if self.warm_cache
            else self.costs.memcpy_bytes_per_cycle
        )
        return max(1, math.ceil(nbytes / bandwidth))

    def zero_cycles(self, nbytes: int) -> int:
        """memset duration for block zeroing."""
        if nbytes <= 0:
            return 0
        bandwidth = (
            self.costs.memset_nomiss_bytes_per_cycle
            if self.warm_cache
            else self.costs.memset_bytes_per_cycle
        )
        return max(1, math.ceil(nbytes / bandwidth))

    def preload(self, files: dict) -> None:
        """Populate the tmpfs with ``files`` (path -> bytes), parent
        directories first, outside simulated time — the twin of
        ``M3System.fs_preload``."""
        fs = self.fs
        for path, content in files.items():
            directory = ""
            for part in fs.split(path)[:-1]:
                directory = f"{directory}/{part}"
                if not fs.exists(directory):
                    fs.mkdir(directory)
            fs.create(path).data.extend(content)

    # -- processes ---------------------------------------------------------------

    def spawn(self, func, *args, name: str = "proc",
              parent: "LxEnv | None" = None) -> "LxEnv":
        """Start ``func(env, *args)`` as a process; returns its env."""
        env = LxEnv(self, name=name)
        if parent is not None:
            env.inherit_fds(parent)

        def body():
            yield from self.cpu.acquire(env)
            try:
                result = yield from func(env, *args)
            finally:
                env.close_all_fds()
                self.cpu.release(env)
            return result

        env.process = self.sim.process(body(), name)
        return env

    def run_program(self, func, *args, name: str = "main"):
        """Spawn + simulate to completion; returns the program's result."""
        env = self.spawn(func, *args, name=name)
        return self.sim.run_process(_join(env), name=f"{name}.join")


def _join(env: "LxEnv"):
    result = yield env.process
    return result


class LxEnv:
    """What a simulated Linux program sees: POSIX-ish syscalls."""

    def __init__(self, machine: LinuxMachine, name: str):
        self.machine = machine
        self.sim = machine.sim
        self.costs = machine.costs
        self.name = name
        self.process: "Process | None" = None
        self._fds: dict[int, _Descriptor] = {}
        self._next_fd = 3  # 0..2 are the std streams

    # -- plumbing ------------------------------------------------------------

    def _kernel(self, cycles: int):
        """Kernel-path time (the figures' "OS" stack)."""
        return self.sim.delay(int(cycles), tag=Tag.OS)

    def _copy(self, nbytes: int):
        """Data-copy time (the figures' "Xfers" stack)."""
        return self.sim.delay(self.machine.copy_cycles(nbytes), tag=Tag.XFER)

    def compute(self, cycles: int):
        """Application computation (the figures' "App" stack)."""
        return self.sim.delay(int(cycles), tag=Tag.APP)

    def _block_until(self, make_event):
        """Generator: release the CPU, wait, reacquire (context switch)."""
        self.machine.cpu.release(self)
        yield make_event()
        yield from self.machine.cpu.acquire(self)

    def _install(self, descriptor: _Descriptor) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = descriptor
        return fd

    def _get(self, fd: int) -> _Descriptor:
        try:
            return self._fds[fd]
        except KeyError:
            raise LxFsError(f"EBADF: {fd}") from None

    def inherit_fds(self, parent: "LxEnv") -> None:
        """fork semantics: shared descriptors (same offsets, same pipes)."""
        self._fds = dict(parent._fds)
        self._next_fd = parent._next_fd
        for descriptor in self._fds.values():
            if descriptor.kind == "pipe_w":
                descriptor.pipe.writer_count += 1

    def close_all_fds(self) -> None:
        for fd in list(self._fds):
            descriptor = self._fds.pop(fd)
            self._drop(descriptor)

    def _drop(self, descriptor: _Descriptor) -> None:
        if descriptor.kind == "pipe_w":
            descriptor.pipe.writer_count -= 1
            if descriptor.pipe.writer_count <= 0:
                descriptor.pipe.close_write()

    # -- syscalls -------------------------------------------------------------

    def null_syscall(self):
        """Generator: the Figure 3 micro-benchmark (410 cycles on Xtensa)."""
        yield self._kernel(self.costs.syscall_cycles)

    def open(self, path: str, flags: int):
        """Generator: open/create a tmpfs file; returns an fd."""
        fs = self.machine.fs
        yield self._kernel(
            self.costs.syscall_enter_leave_cycles
            + self.costs.fd_lookup_checks_cycles
            + self.costs.path_component_cycles * fs.path_depth(path)
        )
        if not fs.exists(path):
            if not (flags & O_CREAT):
                raise LxFsError(f"ENOENT: {path!r}")
            node = fs.create(path)
        else:
            node = fs.lookup(path)
        if node.kind != "file":
            raise LxFsError(f"EISDIR: {path!r}")
        if flags & O_TRUNC:
            node.data.clear()
        return self._install(_Descriptor("file", node=node))

    def read(self, fd: int, count: int):
        """Generator: read bytes (files and pipe read ends)."""
        descriptor = self._get(fd)
        if descriptor.kind == "pipe_r":
            return (yield from self._pipe_read(descriptor, count))
        if descriptor.kind != "file":
            raise LxFsError("EBADF: not readable")
        node = descriptor.node
        data = bytes(node.data[descriptor.position : descriptor.position + count])
        blocks = max(1, self.machine.fs.blocks_of(len(data)))
        yield self._kernel(
            self.costs.syscall_enter_leave_cycles
            + self.costs.fd_lookup_checks_cycles
            + self.costs.page_cache_op_cycles * blocks
        )
        yield self._copy(len(data))
        descriptor.position += len(data)
        return data

    def write(self, fd: int, data: bytes):
        """Generator: write bytes; zeroes freshly allocated blocks first
        ("Linux is overwriting each block with zeros before handing it
        out to a writing application", Section 5.4)."""
        descriptor = self._get(fd)
        if descriptor.kind == "pipe_w":
            return (yield from self._pipe_write(descriptor, data))
        if descriptor.kind != "file":
            raise LxFsError("EBADF: not writable")
        node = descriptor.node
        fs = self.machine.fs
        blocks = max(1, fs.blocks_of(len(data)))
        fresh = fs.new_blocks_for_write(node, descriptor.position, len(data))
        yield self._kernel(
            self.costs.syscall_enter_leave_cycles
            + self.costs.fd_lookup_checks_cycles
            + self.costs.page_cache_op_cycles * blocks
        )
        return (yield from self._store(descriptor, data, fresh))

    def _store(self, descriptor: _Descriptor, data: bytes, fresh: int):
        """Generator: after the caller's syscall charge, zero the
        ``fresh`` blocks the store allocates, copy ``data`` in at the
        descriptor's position and advance it; returns its length."""
        if fresh:
            yield self._kernel(
                self.machine.zero_cycles(fresh * self.machine.fs.block_bytes))
        yield self._copy(len(data))
        node = descriptor.node
        end = descriptor.position + len(data)
        if len(node.data) < end:
            node.data.extend(bytes(end - len(node.data)))
        node.data[descriptor.position : end] = data
        descriptor.position = end
        return len(data)

    def lseek(self, fd: int, offset: int, whence: int = 0):
        """Generator: reposition a file descriptor."""
        descriptor = self._get(fd)
        if descriptor.kind != "file":
            raise LxFsError("ESPIPE")
        yield self._kernel(self.costs.syscall_cycles)
        if whence == 0:
            descriptor.position = offset
        elif whence == 1:
            descriptor.position += offset
        elif whence == 2:
            descriptor.position = len(descriptor.node.data) + offset
        else:
            raise ValueError(f"bad whence {whence}")
        return descriptor.position

    def close(self, fd: int):
        """Generator: release a descriptor."""
        descriptor = self._get(fd)
        yield self._kernel(self.costs.syscall_cycles)
        del self._fds[fd]
        self._drop(descriptor)

    def stat(self, path: str):
        """Generator: (kind, size, links).  "stat is well optimized on
        Linux" (Section 5.6) — one flat, tuned cost."""
        yield self._kernel(self.costs.stat_cycles)
        node = self.machine.fs.lookup(path)
        size = len(node.data) if node.kind == "file" else 0
        return (node.kind, size, node.links)

    def mkdir(self, path: str):
        yield self._kernel(self._namespace_cost(path))
        self.machine.fs.mkdir(path)

    def unlink(self, path: str):
        yield self._kernel(self._namespace_cost(path))
        self.machine.fs.unlink(path)

    def readdir(self, path: str):
        """Generator: getdents, one pass."""
        yield self._kernel(self._namespace_cost(path))
        return self.machine.fs.readdir(path)

    def _namespace_cost(self, path: str) -> int:
        return (
            self.costs.syscall_enter_leave_cycles
            + self.costs.dir_op_cycles
            + self.costs.path_component_cycles
            * self.machine.fs.path_depth(path)
        )

    # -- pipes -------------------------------------------------------------------

    def pipe(self):
        """Generator: create a pipe; returns (read_fd, write_fd)."""
        yield self._kernel(self.costs.syscall_cycles)
        pipe_obj = LxPipe(self.sim)
        pipe_obj.writer_count = 1
        read_fd = self._install(_Descriptor("pipe_r", pipe=pipe_obj))
        write_fd = self._install(_Descriptor("pipe_w", pipe=pipe_obj))
        return read_fd, write_fd

    def _pipe_read(self, descriptor: _Descriptor, count: int):
        pipe_obj = descriptor.pipe
        yield self._kernel(
            self.costs.syscall_enter_leave_cycles
            + self.costs.fd_lookup_checks_cycles
        )
        while not pipe_obj.buffer and not pipe_obj.write_closed:
            yield from self._block_until(pipe_obj.wait_for_data)
        data = pipe_obj.pull(count)
        if data:
            yield self._copy(len(data))
            yield self._kernel(self.costs.pipe_wakeup_cycles)
        return data

    def _pipe_write(self, descriptor: _Descriptor, data: bytes):
        pipe_obj = descriptor.pipe
        yield self._kernel(
            self.costs.syscall_enter_leave_cycles
            + self.costs.fd_lookup_checks_cycles
        )
        written = 0
        while written < len(data):
            while pipe_obj.free_space == 0:
                yield from self._block_until(pipe_obj.wait_for_space)
            accepted = pipe_obj.push(data[written:])
            yield self._copy(accepted)
            yield self._kernel(self.costs.pipe_wakeup_cycles)
            written += accepted
        return written

    # -- processes ------------------------------------------------------------------

    def fork(self, child_func, *args, name: str | None = None):
        """Generator: start a child process running ``child_func``;
        returns its env (the waitpid handle)."""
        yield self._kernel(self.costs.fork_cycles)
        child = self.machine.spawn(
            child_func, *args,
            name=name or f"{self.name}.child", parent=self,
        )
        return child

    def execve(self, binary_path: str):
        """Generator: account for program loading (image read + setup)."""
        node = self.machine.fs.lookup(binary_path)
        yield self._kernel(self.costs.exec_cycles)
        yield self._copy(len(node.data))

    def waitpid(self, child: "LxEnv"):
        """Generator: block until the child exits; returns its result
        (a child's crash is thrown into a parent blocked here, and one
        nobody waits on leaves the run where it is raised)."""
        yield self._kernel(self.costs.syscall_cycles)
        if not child.process.done.triggered:
            yield from self._block_until(lambda: child.process.done)
        return child.process.done.value

    def sendfile(self, out_fd: int, in_fd: int, count: int):
        """Generator: in-kernel copy, no per-block user crossings —
        "both benchmarks use sendfile to transfer the data"
        (Section 5.6)."""
        source = self._get(in_fd)
        target = self._get(out_fd)
        if source.kind != "file" or target.kind != "file":
            raise LxFsError("EINVAL: sendfile needs regular files here")
        fs = self.machine.fs
        data = bytes(
            source.node.data[source.position : source.position + count]
        )
        blocks = max(1, fs.blocks_of(len(data)))
        fresh = fs.new_blocks_for_write(
            target.node, target.position, len(data)
        )
        yield self._kernel(
            self.costs.syscall_enter_leave_cycles
            + 2 * self.costs.fd_lookup_checks_cycles
            + 2 * self.costs.page_cache_op_cycles * blocks
        )
        yield from self._store(target, data, fresh)
        source.position += len(data)
        return len(data)
