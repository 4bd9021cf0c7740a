"""The m3fs core: paths, inodes, allocation, extents.

This is the service-side logic, independent of message handling.  All
placement decisions are in *region offsets* (byte offsets within the
DRAM region the service obtained from the kernel) — the service itself
never needs absolute addresses, matching the capability model.
"""

from __future__ import annotations

from repro import params
from repro.m3.services.m3fs.bitmap import Bitmap
from repro.m3.services.m3fs.extents import Extent, total_bytes
from repro.m3.services.m3fs.inode import Inode
from repro.m3.services.m3fs.superblock import SuperBlock


class FsError(Exception):
    """Filesystem-level failure reported back to clients."""


class M3FS:
    """Filesystem state: superblock, bitmaps, inode table, directories."""

    ROOT_INO = 0

    def __init__(self, superblock: SuperBlock | None = None,
                 append_blocks: int = params.M3FS_APPEND_BLOCKS):
        self.sb = superblock or SuperBlock()
        self.block_bitmap = Bitmap(self.sb.total_blocks)
        self.inode_bitmap = Bitmap(self.sb.total_inodes)
        self.inodes: dict[int, Inode] = {}
        #: "write operations extend files by a large number of blocks at
        #: once to minimize the fragmentation" (Section 4.5.8).
        self.append_blocks = append_blocks
        root_ino = self.inode_bitmap.alloc()
        self.inodes[root_ino] = Inode(ino=root_ino, kind="dir")

    # -- path handling ------------------------------------------------------

    @staticmethod
    def split(path: str) -> list[str]:
        """Normalised path components ('/a//b/' -> ['a', 'b'])."""
        return [part for part in path.split("/") if part and part != "."]

    def resolve(self, path: str) -> Inode:
        """The inode at ``path``; raises FsError when missing."""
        inode = self.inodes[self.ROOT_INO]
        for part in self.split(path):
            if not inode.is_dir:
                raise FsError(f"{part!r} crossed a non-directory")
            try:
                inode = self.inodes[inode.entries[part]]
            except KeyError:
                raise FsError(f"no such file or directory: {path!r}") from None
        return inode

    def resolve_parent(self, path: str) -> tuple[Inode, str]:
        """The containing directory of ``path`` and the final name."""
        parts = self.split(path)
        if not parts:
            raise FsError("path resolves to the root directory")
        parent = self.inodes[self.ROOT_INO]
        for part in parts[:-1]:
            try:
                parent = self.inodes[parent.entries[part]]
            except KeyError:
                raise FsError(f"no such directory: {part!r}") from None
            if not parent.is_dir:
                raise FsError(f"{part!r} is not a directory")
        return parent, parts[-1]

    def exists(self, path: str) -> bool:
        try:
            self.resolve(path)
            return True
        except FsError:
            return False

    # -- namespace operations ---------------------------------------------------

    def create(self, path: str) -> Inode:
        """Create an empty regular file."""
        parent, name = self.resolve_parent(path)
        return self._link(parent, name, "file", path)

    def mkdir(self, path: str) -> Inode:
        parent, name = self.resolve_parent(path)
        return self._link(parent, name, "dir", path)

    def create_with_parents(self, path: str) -> Inode:
        """Create an empty regular file, making each missing directory
        on the way in one walk from the root — what ``mkdir`` of every
        missing ancestor and then ``create`` do, in the same order, so
        the same inode numbers are allocated."""
        parts = self.split(path)
        if not parts:
            raise FsError("path resolves to the root directory")
        parent = self.inodes[self.ROOT_INO]
        for part in parts[:-1]:
            ino = parent.entries.get(part)
            if ino is None:
                parent = self._link(parent, part, "dir", path)
                continue
            parent = self.inodes[ino]
            if not parent.is_dir:
                raise FsError(f"{part!r} is not a directory")
        return self._link(parent, parts[-1], "file", path)

    def _link(self, parent: Inode, name: str, kind: str, path: str) -> Inode:
        """A new ``kind`` inode entered in ``parent`` as ``name``."""
        if name in parent.entries:
            raise FsError(f"already exists: {path!r}")
        ino = self.inode_bitmap.alloc()
        inode = Inode(ino=ino, kind=kind)
        self.inodes[ino] = inode
        parent.entries[name] = ino
        return inode

    def unlink(self, path: str) -> None:
        parent, name = self.resolve_parent(path)
        if name not in parent.entries:
            raise FsError(f"no such file: {path!r}")
        inode = self.inodes[parent.entries[name]]
        if inode.is_dir and inode.entries:
            raise FsError(f"directory not empty: {path!r}")
        del parent.entries[name]
        inode.links -= 1
        if inode.links == 0:
            self._free_inode(inode)

    def readdir(self, path: str) -> list[str]:
        inode = self.resolve(path)
        if not inode.is_dir:
            raise FsError(f"not a directory: {path!r}")
        return sorted(inode.entries)

    def stat(self, path: str) -> tuple:
        """(kind, size, links, extent_count) — what the STAT op reports."""
        inode = self.resolve(path)
        return (inode.kind, inode.size, inode.links, inode.extent_count)

    def _free_inode(self, inode: Inode) -> None:
        for extent in inode.extents:
            self.block_bitmap.free_run(extent.start_block, extent.block_count)
        inode.extents.clear()
        self.inode_bitmap.free_run(inode.ino, 1)
        del self.inodes[inode.ino]

    # -- data placement ------------------------------------------------------------

    def append_extent(self, inode: Inode, want_blocks: int | None = None) -> Extent:
        """Allocate a new extent at the end of ``inode``.

        Tries ``want_blocks`` (default: the configured append chunk) and
        accepts a shorter run under fragmentation — shorter runs are
        what fragmentation *is* from the client's perspective.
        """
        if inode.is_dir:
            raise FsError("directories have no data extents")
        want = want_blocks or self.append_blocks
        start, got = self.block_bitmap.alloc_run(want)
        extent = Extent(start, got)
        inode.extents.append(extent)
        return extent

    def truncate(self, inode: Inode, size: int) -> None:
        """Set the file size, freeing whole blocks past the end.

        "the close operation truncates it to the actually used space"
        (Section 4.5.8).
        """
        if size < 0:
            raise FsError(f"negative size: {size}")
        if size > total_bytes(inode.extents, self.sb.block_size):
            raise FsError("cannot truncate beyond allocated space")
        needed_blocks = -(-size // self.sb.block_size)
        kept = 0
        new_extents: list[Extent] = []
        for extent in inode.extents:
            if kept >= needed_blocks:
                self.block_bitmap.free_run(extent.start_block, extent.block_count)
                continue
            keep = min(extent.block_count, needed_blocks - kept)
            if keep < extent.block_count:
                self.block_bitmap.free_run(
                    extent.start_block + keep, extent.block_count - keep
                )
                new_extents.append(extent.shrink_to(keep))
            else:
                new_extents.append(extent)
            kept += keep
        inode.extents = new_extents
        inode.size = size

    def extent_region(self, extent: Extent) -> tuple[int, int]:
        """(region offset, byte length) of an extent — what gets delegated."""
        return (
            self.sb.block_offset(extent.start_block),
            extent.size_bytes(self.sb.block_size),
        )
