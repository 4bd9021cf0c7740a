"""POSIX-like buffered files over m3fs memory capabilities.

"libm3 offers POSIX-like abstractions (open, read, write, seek, close)
to the application.  That is, the application uses a local buffer for
reading and writing, and libm3 will translate that into memory reads
or writes at the appropriate location and will, if necessary, request
further memory capabilities" (Section 4.5.8).
"""

from __future__ import annotations

import enum
import typing

from repro import params
from repro.m3.lib.gate import MemGate
from repro.m3.services.m3fs.fs import FsError
from repro.m3.services.m3fs.server import LOCS_PER_REPLY
from repro.sim.ledger import Tag

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.m3.lib.env import Env
    from repro.m3.lib.m3fs_client import M3fsClient


class OpenFlags(enum.IntFlag):
    """File open modes."""

    R = 1
    W = 2
    CREATE = 4
    TRUNC = 8

    #: conventional combinations
    RW = R | W


class _CachedExtent(typing.NamedTuple):
    gate: MemGate
    start: int  # file offset where this extent begins
    length: int  # capacity in bytes


class File:
    """An open file: position, size, and the extent-capability cache."""

    def __init__(self, env: "Env", client: "M3fsClient", fd: int, size: int,
                 flags: int, path: str):
        self.env = env
        self.client = client
        self.fd = fd
        self.size = size
        # Decided once: an IntFlag test costs two enum calls per access.
        self._readable = bool(flags & OpenFlags.R)
        self._writable = bool(flags & OpenFlags.W)
        self.path = path
        self.position = 0
        self._extents: list[_CachedExtent] = []
        self._capacity = 0  # bytes covered by cached extents
        self._next_extent_index = 0
        #: False once the server reported no further extents; appends
        #: re-extend the cache directly, keeping indexes aligned.
        self._maybe_more = True
        self._closed = False
        self._dirty = False

    # -- extent management ------------------------------------------------------

    def _fetch_locations(self):
        """Generator: pull the next batch of extent capabilities.

        Returns True if new extents arrived.  "The application needs to
        ask m3fs for the locations of the file fragments that it wants
        to access first" (Section 4.5.8).
        """
        entries, more = yield from self.client.request(
            "get_locs", self.fd, self._next_extent_index, LOCS_PER_REPLY
        )
        for selector, length in entries:
            self._install_extent(selector, length)
        self._maybe_more = bool(more)
        return bool(entries)

    def _install_extent(self, selector: int, length: int) -> None:
        gate = MemGate(self.env, selector, size=length)
        self._extents.append(_CachedExtent(gate, self._capacity, length))
        self._capacity += length
        self._next_extent_index += 1

    def _append_extent(self, want_blocks=None):
        """Generator: grow the file's allocation by one extent."""
        selector, length = yield from self.client.request(
            "append", self.fd, want_blocks
        )
        self._install_extent(selector, length)

    def _extent_at(self, offset: int) -> _CachedExtent | None:
        """The cached extent containing file offset ``offset``."""
        for extent in reversed(self._extents):
            if extent.start <= offset < extent.start + extent.length:
                return extent
        return None

    def _ensure(self, offset: int, for_write: bool):
        """Generator: make sure ``offset`` is covered by a cached extent."""
        while offset >= self._capacity:
            got_new = False
            if self._maybe_more:
                got_new = yield from self._fetch_locations()
            if not got_new:
                if not for_write:
                    return None
                yield from self._append_extent()
        return self._extent_at(offset)

    # -- read / write ----------------------------------------------------------------

    def read(self, count: int):
        """Generator: up to ``count`` bytes from the current position
        (empty bytes at EOF), as a read-only bytes-like object: a piece
        that one extent holds is passed through as the memory handed it
        out (``bytes`` or a ``memoryview`` of ``bytes``)."""
        self._check_open()
        if not self._readable:
            raise FsError(f"{self.path!r} not open for reading")
        yield self.env.sim.delay(params.M3_FILE_DISPATCH_CYCLES, tag=Tag.OS)
        remaining = min(count, self.size - self.position)
        if remaining <= 0:
            return b""
        pieces = []
        while remaining > 0:
            if self.position < self._capacity:
                extent = self._extent_at(self.position)
            else:
                extent = yield from self._ensure(self.position,
                                                 for_write=False)
                if extent is None:
                    break
            yield self.env.sim.delay(params.M3_FILE_LOCATE_CYCLES, tag=Tag.OS)
            offset_in_extent = self.position - extent.start
            chunk = min(remaining, extent.length - offset_in_extent)
            data = yield from extent.gate.read(offset_in_extent, chunk)
            pieces.append(data)
            self.position += chunk
            remaining -= chunk
        return pieces[0] if len(pieces) == 1 else b"".join(pieces)

    def write(self, data: bytes):
        """Generator: write ``data`` at the current position; returns the
        number of bytes written."""
        self._check_open()
        if not self._writable:
            raise FsError(f"{self.path!r} not open for writing")
        yield self.env.sim.delay(params.M3_FILE_DISPATCH_CYCLES, tag=Tag.OS)
        if type(data) is not bytes and not (
                type(data) is memoryview and type(data.obj) is bytes):
            data = bytes(data)  # snapshot a mutable payload once
        view = memoryview(data)
        written = 0
        while written < len(view):
            if self.position < self._capacity:
                extent = self._extent_at(self.position)
            else:
                extent = yield from self._ensure(self.position,
                                                 for_write=True)
            yield self.env.sim.delay(params.M3_FILE_LOCATE_CYCLES, tag=Tag.OS)
            offset_in_extent = self.position - extent.start
            chunk = min(len(view) - written,
                        extent.length - offset_in_extent)
            yield from extent.gate.write(
                offset_in_extent, view[written : written + chunk]
            )
            self.position += chunk
            written += chunk
            self.size = max(self.size, self.position)
        self._dirty = True
        return written

    def seek(self, offset: int, whence: int = 0):
        """Generator: move the file position (0=set, 1=cur, 2=end).

        "most seek operations can be done in libm3 by seeking within
        the already obtained memory capabilities" (Section 4.5.8);
        a seek beyond them only records the position — the capability
        request happens at the next access.
        """
        self._check_open()
        if whence == 0:
            target = offset
        elif whence == 1:
            target = self.position + offset
        elif whence == 2:
            target = self.size + offset
        else:
            raise ValueError(f"bad whence: {whence}")
        if target < 0:
            raise FsError("seek before start of file")
        yield self.env.sim.delay(params.M3_SEEK_LOCAL_CYCLES, tag=Tag.OS)
        self.position = target
        return target

    def close(self):
        """Generator: commit the final size (truncating the
        over-allocated tail) and drop the descriptor."""
        if self._closed:
            return
        self._closed = True
        yield self.env.sim.delay(params.M3_FILE_DISPATCH_CYCLES, tag=Tag.OS)
        yield from self.client.request("close", self.fd, self.size)

    def _check_open(self) -> None:
        if self._closed:
            raise FsError(f"{self.path!r} is closed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"pos={self.position}"
        return f"<File {self.path!r} size={self.size} {state}>"
