"""libm3: the application library.

"The library libm3 provides abstractions for communicating with the
kernel or OS services, accessing files, using the DTU etc."
(Section 4.5.2).  Due to the small SPMs, it provides lightweight
abstractions rather than a POSIX-compliant environment.
"""

from repro.m3.lib.marshalling import wire_size
from repro.m3.lib.env import Env
from repro.m3.lib.gate import Gate, MemGate, RecvGate, SendGate
from repro.m3.lib.vpe import VPE
from repro.m3.lib.file import File, OpenFlags
from repro.m3.lib.vfs import VFS
from repro.m3.lib.pipe import Pipe, PipeReader, PipeWriter

__all__ = [
    "Env",
    "File",
    "Gate",
    "MemGate",
    "OpenFlags",
    "Pipe",
    "PipeReader",
    "PipeWriter",
    "RecvGate",
    "SendGate",
    "VFS",
    "VPE",
    "wire_size",
]
