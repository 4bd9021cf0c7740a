"""``M3System.fs_preload`` against the per-ancestor walk it replaced.

The preload walks each file's path once (``M3FS.create_with_parents``);
the oracle below is the loop it replaced, which called ``exists()``
from the root for every ancestor and ``mkdir`` for each missing one.
Both must leave the same volume: inode numbers, directory entries,
extents, sizes, both bitmaps and the bytes in DRAM.
"""

import pytest

from repro.m3.services.m3fs.superblock import SuperBlock
from repro.m3.system import M3System
from repro.workloads.data import deterministic_bytes
from repro.workloads.tracegen import TRACE_BENCHMARKS

VOLUME_BLOCKS = 16 * 1024
#: the fragmented volume: filled by FRAGMENT_FILES files of HOLE_BLOCKS
#: blocks each, then every other one unlinked.
FRAGMENTED_BLOCKS = 4 * 1024
HOLE_BLOCKS = 8
FRAGMENT_FILES = FRAGMENTED_BLOCKS // HOLE_BLOCKS


def _oracle_preload(system, files, extent_blocks=None):
    """The preload as it was: ``exists()`` per ancestor, then ``create``."""
    server = system.fs_server
    fs = server.fs
    base = server.vpe.captable.get(server.region.selector).obj.address
    dram = system.platform.dram.memory
    for path, content in files.items():
        view = memoryview(content)
        directory = ""
        for part in fs.split(path)[:-1]:
            directory = f"{directory}/{part}"
            if not fs.exists(directory):
                fs.mkdir(directory)
        inode = fs.create(path)
        remaining = len(content)
        written = 0
        while remaining > 0:
            extent = fs.append_extent(inode, extent_blocks or fs.append_blocks)
            offset, length = fs.extent_region(extent)
            chunk = view[written : written + length]
            dram.write(base + offset, chunk)
            written += len(chunk)
            remaining -= len(chunk)
        fs.truncate(inode, len(content))


def _new_preload(system, files, extent_blocks=None):
    system.fs_preload(files, extent_blocks=extent_blocks)


def _boot(total_blocks=VOLUME_BLOCKS):
    return M3System(pe_count=4).boot(
        fs_kwargs={"superblock": SuperBlock(total_blocks=total_blocks)})


def _volume(system, paths):
    """Everything a preload decides, in comparable form."""
    fs = system.fs_server.fs
    inodes = {
        ino: (inode.kind, inode.size, inode.links, tuple(inode.extents),
              dict(inode.entries))
        for ino, inode in fs.inodes.items()
    }
    data = {path: system.fs_read_back(path) for path in paths}
    return (inodes, bytes(fs.block_bitmap._bits),
            bytes(fs.inode_bitmap._bits), data)


def _fig6_trees():
    """Prefixed tar / find / sqlite namespaces, interleaved as Figure 6's
    scalability runs preload them; sqlite has no inputs, only its
    namespace."""
    batches = []
    for index in range(4):
        for name in ("tar", "find", "sqlite"):
            prefix = f"/{name}{index}"
            setup_files, _trace = TRACE_BENCHMARKS[name](prefix)
            batches.append((prefix, setup_files))
    return batches


def _populate(system, preload, batches, extent_blocks):
    paths = []
    for prefix, files in batches:
        if files:
            preload(system, files, extent_blocks)
            paths.extend(files)
        else:
            system.fs_server.fs.mkdir(prefix)
    return paths


@pytest.mark.parametrize("extent_blocks", [16, 256])
def test_preload_leaves_the_volume_the_per_ancestor_walk_left(extent_blocks):
    batches = _fig6_trees()
    old, new = _boot(), _boot()
    old_paths = _populate(old, _oracle_preload, batches, extent_blocks)
    new_paths = _populate(new, _new_preload, batches, extent_blocks)
    assert old_paths == new_paths
    expected = _volume(old, old_paths)
    assert _volume(new, new_paths) == expected
    assert len(expected[0]) > 200  # the trees really were built


def _fragment(system, preload):
    """Fill the whole volume with small files, then unlink every other
    one: the free space is holes shorter than any append chunk."""
    block_bytes = system.fs_server.fs.sb.block_size
    files = {
        f"/frag/f{index}.dat":
            deterministic_bytes(f"frag{index}", HOLE_BLOCKS * block_bytes)
        for index in range(FRAGMENT_FILES)
    }
    preload(system, files, HOLE_BLOCKS)
    for index in range(0, FRAGMENT_FILES, 2):
        system.fs_server.fs.unlink(f"/frag/f{index}.dat")
    return [path for index, path in enumerate(files) if index % 2]


@pytest.mark.parametrize("extent_blocks", [16, 256])
def test_preload_matches_the_walk_on_a_fragmented_volume(extent_blocks):
    old, new = _boot(FRAGMENTED_BLOCKS), _boot(FRAGMENTED_BLOCKS)
    kept = _fragment(old, _oracle_preload)
    assert _fragment(new, _new_preload) == kept
    batches = _fig6_trees()[:3]
    old_paths = kept + _populate(old, _oracle_preload, batches, extent_blocks)
    new_paths = kept + _populate(new, _new_preload, batches, extent_blocks)
    assert _volume(new, new_paths) == _volume(old, old_paths)
    # alloc_run took its shorter-run path: the tar member files span
    # several holes, each shorter than the extent asked for.
    extents = [extent for path in new_paths[len(kept):]
               for extent in new.fs_server.fs.resolve(path).extents]
    assert max(extent.block_count for extent in extents) == HOLE_BLOCKS
    assert len(extents) > len(new_paths) - len(kept)


@pytest.mark.parametrize("path", ["/a/f/g", "/a/f/g/h", "/a/f"])
def test_a_refused_path_is_refused_as_the_walk_refused_it(path):
    from repro.m3.services.m3fs.fs import FsError

    refusals = []
    for preload in (_oracle_preload, _new_preload):
        system = _boot()
        preload(system, {"/a/f": b"x"})
        with pytest.raises(FsError) as refused:
            preload(system, {path: b"y"})
        refusals.append(str(refused.value))
    assert refusals[0] == refusals[1]
