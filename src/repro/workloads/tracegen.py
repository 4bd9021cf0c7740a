"""Synthetic syscall traces with the paper's workload parameters.

Each ``make_*`` function returns ``(setup_files, trace)`` where
``setup_files`` maps path -> content that must exist *before* the
benchmark runs (pre-populated outside the measured window, as the paper
does by running the benchmarks on an already-populated filesystem).
Directories needed by the setup files are created implicitly.

A ``prefix`` moves every path under a per-instance namespace (the
Figure 6 scalability runs).  Both halves are pure functions of the
benchmark and the prefix, so each benchmark's prefix-free template is
built once per process, a prefix is applied to it in one pass, and the
result is memoised: the trace is a tuple and the setup files a
read-only mapping, safe to hand to every system that asks again.  The
``params`` the templates read are read at the first call.
"""

from __future__ import annotations

import functools
import types
import typing

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

#: trace ops whose first argument is a filesystem path.
_PATH_OPS = frozenset({"open", "stat", "mkdir", "unlink", "readdir"})

#: ``(setup_files, trace)`` as every ``make_*`` returns it.
Trace = tuple[typing.Mapping[str, bytes], tuple[TraceOp, ...]]


@functools.cache
def _template(benchmark: str) -> tuple[tuple, tuple[TraceOp, ...]]:
    """``benchmark``'s prefix-free setup items and trace."""
    setup, trace = _BUILDERS[benchmark]()
    return tuple(setup.items()), tuple(trace)


@functools.lru_cache(maxsize=512)  # deterministic_bytes' bound
def _instance(benchmark: str, prefix: str) -> Trace:
    """``benchmark``'s setup and trace with every path under ``prefix``."""
    setup, trace = _template(benchmark)
    files = types.MappingProxyType(
        {prefix + path: content for path, content in setup})
    return files, tuple(
        TraceOp(entry.op, (prefix + entry.args[0], *entry.args[1:]))
        if entry.op in _PATH_OPS else entry
        for entry in trace
    )


def make_tar_trace(prefix: str = "") -> Trace:
    """busybox tar cf /arch.tar /src — headers written per member, data
    moved with sendfile (Section 5.6)."""
    return _instance("tar", prefix)


def make_untar_trace(prefix: str = "") -> Trace:
    """busybox tar xf /arch.tar into /out — per member: header read,
    create, sendfile, padding skip."""
    return _instance("untar", prefix)


def make_find_trace(prefix: str = "") -> Trace:
    """find /tree — "consists mostly of stat calls" (Section 5.6)."""
    return _instance("find", prefix)


def make_sqlite_trace(prefix: str = "") -> Trace:
    """sqlite: create a table, insert 8 rows, select them — small
    journal/db-page I/O around dominant computation (Section 5.6)."""
    return _instance("sqlite", prefix)


#: registry used by the figure-5 and figure-6 harnesses.
TRACE_BENCHMARKS = {
    "tar": make_tar_trace,
    "untar": make_untar_trace,
    "find": make_find_trace,
    "sqlite": make_sqlite_trace,
}


# -- the prefix-free templates ------------------------------------------------


def _build_tar() -> tuple[dict[str, bytes], list[TraceOp]]:
    """The prefix-free template of :func:`make_tar_trace`."""
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
    return sources, trace


def _build_untar() -> tuple[dict[str, bytes], list[TraceOp]]:
    """The prefix-free template of :func:`make_untar_trace`."""
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
    return {"/arch.tar": archive}, trace


def _build_find() -> tuple[dict[str, bytes], list[TraceOp]]:
    """The prefix-free template of :func:`make_find_trace`."""
    directories, files = find_tree_layout()
    trace: list[TraceOp] = []
    trace.append(_op("stat", "/tree"))
    trace.append(_op("readdir", "/tree"))
    for directory in directories:
        trace.append(_op("stat", directory))
        trace.append(_op("readdir", directory))
        for path in sorted(p for p in files if p.startswith(directory + "/")):
            trace.append(_op("stat", path))
    return files, trace


def _build_sqlite() -> tuple[dict[str, bytes], list[TraceOp]]:
    """The prefix-free template of :func:`make_sqlite_trace`."""
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
    return {}, trace


_BUILDERS = {
    "tar": _build_tar,
    "untar": _build_untar,
    "find": _build_find,
    "sqlite": _build_sqlite,
}
