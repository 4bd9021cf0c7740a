"""The virtual filesystem: mount points over filesystem clients.

"libm3 offers a virtual filesystem (VFS) that allows to mount
filesystems at specific paths.  Besides m3fs, it provides a pipe
filesystem to integrate pipes into the VFS" (Section 4.5.8).
"""

from __future__ import annotations

import typing

from repro.m3.services.m3fs.fs import FsError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.m3.lib.env import Env


class VFS:
    """Per-VPE mount table; lazily connects to m3fs at '/'."""

    def __init__(self, env: "Env"):
        self.env = env
        #: (prefix, filesystem client) pairs, longest prefix wins.
        self.mounts: list[tuple[str, object]] = []

    def mount(self, prefix: str, filesystem: object) -> None:
        """Attach a filesystem client at ``prefix``."""
        prefix = "/" + "/".join(p for p in prefix.split("/") if p)
        if any(existing == prefix for existing, _ in self.mounts):
            raise FsError(f"{prefix!r} is already a mount point")
        self.mounts.append((prefix, filesystem))
        self.mounts.sort(key=lambda entry: len(entry[0]), reverse=True)

    def _resolve(self, path: str):
        """Generator: (filesystem client, path below the mount point)."""
        normalized = "/" + "/".join(p for p in path.split("/") if p)
        match = self._match(normalized)
        if match is None and not any(p == "/" for p, _fs in self.mounts):
            # Default root: the m3fs service (connected lazily, only
            # when an unmatched path actually needs it).
            from repro.m3.lib.m3fs_client import M3fsClient

            client = yield from M3fsClient.connect(self.env)
            self.mount("/", client)
            match = self._match(normalized)
        if match is None:
            raise FsError(f"no filesystem mounted for {path!r}")
        return match

    def _match(self, normalized: str):
        for prefix, filesystem in self.mounts:
            if normalized == prefix or normalized.startswith(
                prefix.rstrip("/") + "/"
            ):
                below = normalized[len(prefix.rstrip("/")):] or "/"
                return filesystem, below
        return None

    # -- operations ----------------------------------------------------------

    def open(self, path: str, flags):
        """Generator: open a file (File or pipe channel, transparently)."""
        filesystem, below = yield from self._resolve(path)
        return (yield from filesystem.open(below, flags))

    def stat(self, path: str):
        """Generator: (kind, size, links, extent_count)."""
        filesystem, below = yield from self._resolve(path)
        return (yield from filesystem.stat(below))

    def mkdir(self, path: str):
        filesystem, below = yield from self._resolve(path)
        yield from filesystem.mkdir(below)

    def unlink(self, path: str):
        filesystem, below = yield from self._resolve(path)
        yield from filesystem.unlink(below)

    def link(self, existing: str, new_path: str):
        filesystem, below = yield from self._resolve(existing)
        other, new_below = yield from self._resolve(new_path)
        if filesystem is not other:
            raise FsError("cannot hard-link across filesystems")
        yield from filesystem.link(below, new_below)

    def readdir(self, path: str):
        """Generator: sorted entry names."""
        filesystem, below = yield from self._resolve(path)
        return (yield from filesystem.readdir(below))
