"""Client side of the m3fs protocol: a session plus request helpers."""

from __future__ import annotations

import typing

from repro import params
from repro.m3.lib.service import ClientSession
from repro.m3.services.m3fs.fs import FsError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.m3.lib.file import File


class M3fsClient(ClientSession):
    """One application's session with the m3fs service.

    The client-side share of a request (marshalling, unmarshalling,
    descriptor bookkeeping) dominates its cost; only the small
    server-side share serialises at the service (see
    :data:`repro.params.M3FS_CLIENT_RPC_CYCLES`).
    """

    service = "m3fs"
    error = FsError
    rpc_cycles = params.M3FS_CLIENT_RPC_CYCLES
    category = "m3fs-client"

    # -- file access -----------------------------------------------------------

    def open(self, path: str, flags: int):
        """Generator: open (possibly creating) a file; returns a File."""
        from repro.m3.lib.file import File

        fd, size = yield from self.request("open", path, int(flags))
        return File(self.env, self, fd, size, int(flags), path)

    # -- metadata operations ------------------------------------------------------

    def stat(self, path: str):
        """Generator: (kind, size, links, extent_count)."""
        return (yield from self.request("stat", path))

    def mkdir(self, path: str):
        yield from self.request("mkdir", path)

    def unlink(self, path: str):
        yield from self.request("unlink", path)

    def readdir(self, path: str):
        """Generator: sorted entry names of a directory."""
        return list((yield from self.request("readdir", path)))
