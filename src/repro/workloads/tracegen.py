"""Synthetic syscall traces with the paper's workload parameters.

Each ``make_*`` function returns ``(setup_files, trace)`` where
``setup_files`` maps path -> content that must exist *before* the
benchmark runs (pre-populated outside the measured window, as the paper
does by running the benchmarks on an already-populated filesystem).
Directories needed by the setup files are created implicitly.
"""

from __future__ import annotations

from repro import params
from repro.workloads.data import (
    TAR_RECORD_BYTES,
    find_tree_layout,
    tar_archive_bytes,
    tar_padded,
    tar_source_files,
)
from repro.workloads.trace import (
    MODE_CREATE,
    MODE_R,
    MODE_TRUNC,
    MODE_W,
    TraceOp,
)

_op = TraceOp.make

#: trace ops whose leading arguments are filesystem paths.
_PATH_ARGS = {
    "open": 1, "stat": 1, "mkdir": 1, "unlink": 1, "readdir": 1,
}


def _prefixed(prefix: str, setup: dict, trace: list) -> tuple[dict, list]:
    """Rewrite all paths under ``prefix`` (per-instance namespaces for
    the Figure 6 scalability runs)."""
    if not prefix:
        return setup, trace
    setup = {prefix + path: content for path, content in setup.items()}
    rewritten = []
    for op, args in trace:
        n = _PATH_ARGS.get(op, 0)
        args = tuple(
            (prefix + a) if i < n else a for i, a in enumerate(args)
        )
        rewritten.append(TraceOp(op, args))
    return setup, rewritten


def make_tar_trace(prefix: str = "") -> tuple[dict[str, bytes], list[TraceOp]]:
    """busybox tar cf /arch.tar /src — headers written per member, data
    moved with sendfile (Section 5.6)."""
    sources = tar_source_files()
    trace: list[TraceOp] = []
    trace.append(_op("open", "/arch.tar", MODE_W | MODE_CREATE | MODE_TRUNC))
    archive_slot = 0
    trace.append(_op("readdir", "/src"))
    slot = 1
    for path, content in sources.items():
        size = len(content)
        trace.append(_op("stat", path))
        trace.append(_op("open", path, MODE_R))
        trace.append(_op("write", archive_slot, TAR_RECORD_BYTES))  # header
        trace.append(_op("sendfile", archive_slot, slot, size))
        padding = tar_padded(size) - size
        if padding:
            trace.append(_op("write", archive_slot, padding))
        trace.append(_op("close", slot))
        slot += 1
    trace.append(_op("write", archive_slot, 2 * TAR_RECORD_BYTES))  # EOF marks
    trace.append(_op("close", archive_slot))
    return _prefixed(prefix, sources, trace)


def make_untar_trace(prefix: str = "") -> tuple[dict[str, bytes], list[TraceOp]]:
    """busybox tar xf /arch.tar into /out — per member: header read,
    create, sendfile, padding skip."""
    archive = tar_archive_bytes()
    trace: list[TraceOp] = []
    trace.append(_op("open", "/arch.tar", MODE_R))
    archive_slot = 0
    trace.append(_op("mkdir", "/out"))
    slot = 1
    for path, content in tar_source_files().items():
        size = len(content)
        name = path.rsplit("/", 1)[-1]
        trace.append(_op("read", archive_slot, TAR_RECORD_BYTES))
        trace.append(_op("open", f"/out/{name}", MODE_W | MODE_CREATE))
        trace.append(_op("sendfile", slot, archive_slot, size))
        padding = tar_padded(size) - size
        if padding:
            trace.append(_op("seek", archive_slot, padding, 1))
        trace.append(_op("close", slot))
        slot += 1
    trace.append(_op("read", archive_slot, 2 * TAR_RECORD_BYTES))
    trace.append(_op("close", archive_slot))
    return _prefixed(prefix, {"/arch.tar": archive}, trace)


def make_find_trace(prefix: str = "") -> tuple[dict[str, bytes], list[TraceOp]]:
    """find /tree — "consists mostly of stat calls" (Section 5.6)."""
    directories, files = find_tree_layout()
    trace: list[TraceOp] = []
    trace.append(_op("stat", "/tree"))
    trace.append(_op("readdir", "/tree"))
    for directory in directories:
        trace.append(_op("stat", directory))
        trace.append(_op("readdir", directory))
        for path in sorted(p for p in files if p.startswith(directory + "/")):
            trace.append(_op("stat", path))
    return _prefixed(prefix, files, trace)


def make_sqlite_trace(prefix: str = "") -> tuple[dict[str, bytes], list[TraceOp]]:
    """sqlite: create a table, insert 8 rows, select them — small
    journal/db-page I/O around dominant computation (Section 5.6)."""
    trace: list[TraceOp] = []
    trace.append(_op("open", "/test.db", MODE_W | MODE_R | MODE_CREATE))
    db_slot = 0
    trace.append(_op("read", db_slot, 100))  # header probe
    trace.append(_op("wait", params.SQLITE_CREATE_CYCLES))
    trace.append(_op("write", db_slot, 2 * 1024))  # schema pages
    slot = 1
    for _ in range(params.SQLITE_INSERTS):
        trace.append(_op("open", "/test.db-journal", MODE_W | MODE_CREATE))
        trace.append(_op("write", slot, 512))  # journal header
        trace.append(_op("wait", params.SQLITE_INSERT_CYCLES))
        trace.append(_op("write", slot, 1024))  # page image
        trace.append(_op("seek", db_slot, 0, 0))
        trace.append(_op("write", db_slot, 1024))  # db page
        trace.append(_op("close", slot))
        trace.append(_op("unlink", "/test.db-journal"))
        slot += 1
    trace.append(_op("wait", params.SQLITE_SELECT_CYCLES))
    trace.append(_op("seek", db_slot, 0, 0))
    trace.append(_op("read", db_slot, 1024))
    trace.append(_op("read", db_slot, 1024))
    trace.append(_op("close", db_slot))
    return _prefixed(prefix, {}, trace)


#: registry used by the figure-5 and figure-6 harnesses.
TRACE_BENCHMARKS = {
    "tar": make_tar_trace,
    "untar": make_untar_trace,
    "find": make_find_trace,
    "sqlite": make_sqlite_trace,
}
