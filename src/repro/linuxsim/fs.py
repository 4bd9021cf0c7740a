"""tmpfs: the in-memory filesystem of the Linux baseline.

Byte-accurate content in plain bytearrays; 4 KiB block accounting so
page-cache operations and zeroing can be charged per block exactly as
the paper describes (Section 5.4).
"""

from __future__ import annotations

from repro import params


class LxFsError(Exception):
    """errno-style failure."""


class _Node:
    def __init__(self, kind: str):
        self.kind = kind  # "file" | "dir"
        self.data = bytearray() if kind == "file" else None
        self.entries: dict[str, "_Node"] = {} if kind == "dir" else None
        self.links = 1


class TmpFs:
    """A tree of directories and byte-array files."""

    def __init__(self):
        self.block_bytes = params.LINUX_BLOCK_BYTES
        self.root = _Node("dir")

    # -- path handling ------------------------------------------------------

    @staticmethod
    def split(path: str) -> list[str]:
        return [part for part in path.split("/") if part and part != "."]

    def _walk(self, path: str) -> _Node:
        node = self.root
        for part in self.split(path):
            if node.kind != "dir":
                raise LxFsError(f"ENOTDIR crossing {part!r}")
            try:
                node = node.entries[part]
            except KeyError:
                raise LxFsError(f"ENOENT: {path!r}") from None
        return node

    def _walk_parent(self, path: str) -> tuple[_Node, str]:
        parts = self.split(path)
        if not parts:
            raise LxFsError("EINVAL: root")
        node = self.root
        for part in parts[:-1]:
            try:
                node = node.entries[part]
            except (KeyError, TypeError):
                raise LxFsError(f"ENOENT: {path!r}") from None
            if node.kind != "dir":
                raise LxFsError(f"ENOTDIR: {part!r}")
        return node, parts[-1]

    def path_depth(self, path: str) -> int:
        """Components walked (drives per-component lookup costs)."""
        return max(1, len(self.split(path)))

    # -- operations ----------------------------------------------------------

    def exists(self, path: str) -> bool:
        try:
            self._walk(path)
            return True
        except LxFsError:
            return False

    def lookup(self, path: str) -> _Node:
        return self._walk(path)

    def create(self, path: str) -> _Node:
        parent, name = self._walk_parent(path)
        if name in parent.entries:
            raise LxFsError(f"EEXIST: {path!r}")
        node = _Node("file")
        parent.entries[name] = node
        return node

    def mkdir(self, path: str) -> None:
        parent, name = self._walk_parent(path)
        if name in parent.entries:
            raise LxFsError(f"EEXIST: {path!r}")
        parent.entries[name] = _Node("dir")

    def unlink(self, path: str) -> None:
        parent, name = self._walk_parent(path)
        if name not in parent.entries:
            raise LxFsError(f"ENOENT: {path!r}")
        node = parent.entries[name]
        if node.kind == "dir" and node.entries:
            raise LxFsError(f"ENOTEMPTY: {path!r}")
        del parent.entries[name]
        node.links -= 1

    def readdir(self, path: str) -> list[str]:
        node = self._walk(path)
        if node.kind != "dir":
            raise LxFsError(f"ENOTDIR: {path!r}")
        return sorted(node.entries)

    # -- block accounting -------------------------------------------------------

    def blocks_of(self, nbytes: int) -> int:
        """4 KiB blocks covering ``nbytes``."""
        return -(-nbytes // self.block_bytes)

    def new_blocks_for_write(self, node: _Node, offset: int, count: int) -> int:
        """Blocks that a write [offset, offset+count) allocates fresh —
        these are the ones Linux zeroes before handing out."""
        old_blocks = self.blocks_of(len(node.data))
        new_blocks = self.blocks_of(max(len(node.data), offset + count))
        return max(0, new_blocks - old_blocks)
