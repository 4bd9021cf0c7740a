"""Deterministic workload data: file sets, trees, and payload bytes."""

from __future__ import annotations

import functools

# CPython's builtin SHA-256 first: ``hashlib`` loads OpenSSL's libcrypto
# into every process that imports the simulator, for this one hash
# (docs/performance.md, "What every process maps").
try:
    from _sha2 import sha256  # CPython >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 / 3.11
    except ImportError:
        from hashlib import sha256  # a build without the builtins

from repro import params

#: ustar-style header/record size.
TAR_RECORD_BYTES = 512


@functools.lru_cache(maxsize=512)
def deterministic_bytes(tag: str, length: int) -> bytes:
    """Pseudo-random but reproducible payload bytes.

    A pure function of ``(tag, length)``, so results are memoised: the
    benchmark suite regenerates the same corpora (tar sources, replay
    write buffers, cat+tr input) for every system boot, and the SHA-256
    expansion below is a measurable share of suite wall time.  The
    returned ``bytes`` are immutable and safe to share.
    """
    if length <= 0:
        return b""
    out = bytearray()
    prefix = f"{tag}:".encode()
    counter = 0
    while len(out) < length:
        out.extend(sha256(prefix + str(counter).encode()).digest())
        counter += 1
    return bytes(out[:length])


def tar_file_set() -> dict[str, int]:
    """The tar corpus: "files between 60 and 500 KiB and 1.2 MiB in
    total" (Section 5.6).  Five files summing to exactly 1.2 MiB."""
    sizes_kib = [500, 300, 200, 120, 80]
    assert (sum(sizes_kib) * 1024 == params.TAR_TOTAL_BYTES
            and params.TAR_MIN_FILE_BYTES <= min(sizes_kib) * 1024
            and max(sizes_kib) * 1024 <= params.TAR_MAX_FILE_BYTES)
    return {
        f"/src/file{i}.dat": kib * 1024 for i, kib in enumerate(sizes_kib)
    }


def tar_source_files() -> dict[str, bytes]:
    """Path -> content for the tar benchmark's inputs."""
    return {
        path: deterministic_bytes(path, size)
        for path, size in tar_file_set().items()
    }


def tar_padded(size: int) -> int:
    """``size`` rounded up to whole tar records."""
    return -(-size // TAR_RECORD_BYTES) * TAR_RECORD_BYTES


@functools.cache
def tar_archive_bytes() -> bytes:
    """The archive untar unpacks: header + padded content per member,
    plus the two terminating zero records.  Memoised like
    :func:`deterministic_bytes`: every untar instance preloads it."""
    out = bytearray()
    for path, content in tar_source_files().items():
        header = deterministic_bytes(f"hdr:{path}", TAR_RECORD_BYTES)
        out.extend(header)
        out.extend(content)
        out.extend(bytes(tar_padded(len(content)) - len(content)))
    out.extend(bytes(2 * TAR_RECORD_BYTES))
    return bytes(out)


def find_tree_layout() -> tuple[list[str], dict[str, bytes]]:
    """The find corpus: "a directory tree of 40 items" (Section 5.6).

    Returns (directories, files): 4 directories with 9 small files each
    — 40 items total under ``/tree``.
    """
    directories = [f"/tree/dir{d}" for d in range(4)]
    files = {}
    for directory in directories:
        for f in range(9):
            path = f"{directory}/file{f}.txt"
            files[path] = deterministic_bytes(path, 256)
    assert len(directories) + len(files) == params.FIND_TREE_ITEMS
    return directories, files
