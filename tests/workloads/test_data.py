"""Workload corpora: the paper's stated parameters must hold exactly."""

from repro import params
from repro.workloads.data import (
    TAR_RECORD_BYTES,
    deterministic_bytes,
    find_tree_layout,
    tar_archive_bytes,
    tar_file_set,
    tar_source_files,
)


def test_deterministic_bytes_reproducible_and_distinct():
    assert deterministic_bytes("a", 100) == deterministic_bytes("a", 100)
    assert deterministic_bytes("a", 100) != deterministic_bytes("b", 100)
    assert len(deterministic_bytes("x", 12345)) == 12345
    assert deterministic_bytes("x", 0) == b""


def test_tar_corpus_matches_paper():
    """"files between 60 and 500 KiB and 1.2 MiB in total"."""
    sizes = tar_file_set()
    assert sum(sizes.values()) == params.TAR_TOTAL_BYTES
    for size in sizes.values():
        assert params.TAR_MIN_FILE_BYTES <= size <= params.TAR_MAX_FILE_BYTES


def test_tar_archive_layout():
    archive = tar_archive_bytes()
    sources = tar_source_files()
    expected = sum(
        TAR_RECORD_BYTES + -(-len(c) // TAR_RECORD_BYTES) * TAR_RECORD_BYTES
        for c in sources.values()
    ) + 2 * TAR_RECORD_BYTES
    assert len(archive) == expected
    # First member's content sits right after its header.
    first = next(iter(sources.values()))
    assert archive[TAR_RECORD_BYTES : TAR_RECORD_BYTES + 64] == first[:64]


def test_tar_archive_is_built_once():
    """Every untar instance preloads the same immutable archive."""
    assert tar_archive_bytes() is tar_archive_bytes()


def test_find_tree_has_40_items():
    """"a directory tree of 40 items"."""
    directories, files = find_tree_layout()
    assert len(directories) + len(files) == 40
    for path in files:
        assert any(path.startswith(d + "/") for d in directories)
