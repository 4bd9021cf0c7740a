"""The m3fs server: the message loop of the filesystem service.

"For opening files, closing files, meta-data operations like mkdir,
link etc., the service is contacted ... The actual data transfers are
done without involving m3fs, because the applications directly read or
write to the memory, where the file is stored" (Section 4.5.8).  The
server hands out *memory capabilities* for extents via the kernel's
service-delegation syscall.
"""

from __future__ import annotations

import dataclasses

from repro import params
from repro.dtu.registers import MemoryPerm
from repro.m3.kernel import syscalls
from repro.m3.lib.gate import MemGate
from repro.m3.lib.service import Server
from repro.m3.services.m3fs.fs import FsError, M3FS
from repro.m3.services.m3fs.superblock import SuperBlock

#: maximum extents returned per get_locs reply (bounded by the reply
#: message slot size, as on real hardware).
LOCS_PER_REPLY = 8

#: service request/reply geometry.
FS_MSG_BYTES = 496
FS_RING_SLOTS = 64


@dataclasses.dataclass
class _OpenFile:
    inode: object
    flags: int
    #: extents already delegated to the client (index high-water mark).
    delegated_upto: int = 0


class _Session:
    """Per-client state: open files."""

    def __init__(self, session_id: int):
        self.id = session_id
        self.files: dict[int, _OpenFile] = {}
        self._next_fd = 0

    def install(self, handle: _OpenFile) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self.files[fd] = handle
        return fd

    def get(self, fd: int) -> _OpenFile:
        try:
            return self.files[fd]
        except KeyError:
            raise FsError(f"bad file descriptor {fd}") from None


class M3fsServer(Server):
    """Service wrapper around :class:`M3FS`, driven as VPE software."""

    slot_size = FS_MSG_BYTES + 16
    slot_count = FS_RING_SLOTS
    request_cycles = params.M3FS_SERVER_CYCLES
    errors = (FsError, TypeError, MemoryError)
    category = "m3fs"

    def __init__(self, superblock: SuperBlock | None = None,
                 append_blocks: int = params.M3FS_APPEND_BLOCKS,
                 service_name: str = "m3fs"):
        super().__init__(service_name)
        self.fs = M3FS(superblock, append_blocks=append_blocks)
        self.region: MemGate | None = None

    def _setup(self, env):
        self.region = yield from MemGate.create(
            env, self.fs.sb.size_bytes, MemoryPerm.RW.value
        )

    def _open_session(self, session_id: int) -> _Session:
        return _Session(session_id)

    # -- capability delegation ----------------------------------------------

    def _delegate_extent(self, session: _Session, extent, perm: MemoryPerm):
        """Generator: hand the client a memory capability for an extent;
        returns the selector in the client's table."""
        offset, length = self.fs.extent_region(extent)
        selector = yield from self.env.syscall(
            syscalls.SRV_DELEGATE,
            self.service_sel,
            session.id,
            self.region.selector,
            offset,
            length,
            perm.value,
        )
        return selector, length

    @staticmethod
    def _perm_for(flags: int) -> MemoryPerm:
        from repro.m3.lib.file import OpenFlags

        if flags & OpenFlags.W:
            return MemoryPerm.RW
        return MemoryPerm.READ

    # -- operations ---------------------------------------------------------------

    def _op_open(self, session: _Session, path: str, flags: int):
        from repro.m3.lib.file import OpenFlags

        if not (flags & (OpenFlags.R | OpenFlags.W)):
            raise FsError("open needs read or write mode")
        if not self.fs.exists(path):
            if not (flags & OpenFlags.CREATE):
                raise FsError(f"no such file: {path!r}")
            inode = self.fs.create(path)
        else:
            inode = self.fs.resolve(path)
        if inode.is_dir:
            raise FsError(f"is a directory: {path!r}")
        if flags & OpenFlags.TRUNC:
            self.fs.truncate(inode, 0)
        fd = session.install(_OpenFile(inode=inode, flags=flags))
        return (fd, inode.size)
        yield  # pragma: no cover

    def _op_get_locs(self, session: _Session, fd: int, extent_index: int,
                     count: int):
        handle = session.get(fd)
        inode = handle.inode
        count = min(count, LOCS_PER_REPLY)
        entries = []
        for index in range(extent_index, min(extent_index + count,
                                             len(inode.extents))):
            selector, length = yield from self._delegate_extent(
                session, inode.extents[index], self._perm_for(handle.flags)
            )
            entries.append((selector, length))
        more = extent_index + len(entries) < len(inode.extents)
        return (entries, more)

    def _op_append(self, session: _Session, fd: int, want_blocks):
        from repro.m3.lib.file import OpenFlags

        handle = session.get(fd)
        if not (handle.flags & OpenFlags.W):
            raise FsError("file not open for writing")
        yield self.env.os_work(params.M3FS_ALLOC_CYCLES)
        extent = self.fs.append_extent(handle.inode, want_blocks)
        selector, length = yield from self._delegate_extent(
            session, extent, MemoryPerm.RW
        )
        return (selector, length)

    def _op_close(self, session: _Session, fd: int, final_size: int):
        from repro.m3.lib.file import OpenFlags

        handle = session.get(fd)
        if handle.flags & OpenFlags.W:
            yield self.env.os_work(params.M3FS_ALLOC_CYCLES)
            self.fs.truncate(handle.inode, final_size)
        del session.files[fd]
        return ()

    def _op_stat(self, session: _Session, path: str):
        return self.fs.stat(path)
        yield  # pragma: no cover

    def _op_mkdir(self, session: _Session, path: str):
        self.fs.mkdir(path)
        return ()
        yield  # pragma: no cover

    def _op_unlink(self, session: _Session, path: str):
        self.fs.unlink(path)
        return ()
        yield  # pragma: no cover

    def _op_link(self, session: _Session, existing: str, new_path: str):
        self.fs.link(existing, new_path)
        return ()
        yield  # pragma: no cover

    def _op_readdir(self, session: _Session, path: str):
        return tuple(self.fs.readdir(path))
        yield  # pragma: no cover
