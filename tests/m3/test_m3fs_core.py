"""Unit tests for the m3fs core (no simulation involved)."""

import pytest

from repro.m3.services.m3fs.extents import Extent, total_bytes
from repro.m3.services.m3fs.fs import FsError, M3FS
from repro.m3.services.m3fs.superblock import SuperBlock


def _fs(blocks=1024, block_size=1024, append=16):
    return M3FS(SuperBlock(block_size=block_size, total_blocks=blocks),
                append_blocks=append)


def test_fresh_fs_has_root_dir():
    fs = _fs()
    assert fs.readdir("/") == []
    assert fs.stat("/") == ("dir", 0, 1, 0)


def test_create_and_resolve():
    fs = _fs()
    fs.create("/a.txt")
    assert fs.exists("/a.txt")
    assert fs.stat("/a.txt")[0] == "file"
    with pytest.raises(FsError):
        fs.create("/a.txt")


def test_nested_directories():
    fs = _fs()
    fs.mkdir("/usr")
    fs.mkdir("/usr/share")
    fs.create("/usr/share/words")
    assert fs.readdir("/usr") == ["share"]
    assert fs.readdir("/usr/share") == ["words"]
    with pytest.raises(FsError):
        fs.mkdir("/nonexistent/dir")


def test_path_normalization():
    fs = _fs()
    fs.mkdir("/a")
    fs.create("/a/b")
    assert fs.exists("//a///b/")
    assert fs.exists("a/b")


def test_unlink_file_frees_blocks():
    fs = _fs()
    inode = fs.create("/victim")
    fs.append_extent(inode, 8)
    used_before = fs.block_bitmap.used
    fs.unlink("/victim")
    assert fs.block_bitmap.used == used_before - 8
    assert not fs.exists("/victim")


def test_unlink_nonempty_dir_refused():
    fs = _fs()
    fs.mkdir("/d")
    fs.create("/d/f")
    with pytest.raises(FsError):
        fs.unlink("/d")
    fs.unlink("/d/f")
    fs.unlink("/d")
    assert not fs.exists("/d")


def test_append_extent_and_locate():
    fs = _fs(append=4)
    inode = fs.create("/f")
    first = fs.append_extent(inode)
    second = fs.append_extent(inode)
    assert first.block_count == 4 and second.block_count == 4
    assert inode.extents == [first, second]
    # byte 5 KiB lies 1 KiB into the second extent
    assert 5 * 1024 - first.size_bytes(1024) == 1024 < second.size_bytes(1024)


def test_extent_region_maps_blocks_to_offsets():
    fs = _fs()
    inode = fs.create("/f")
    extent = fs.append_extent(inode, 4)
    offset, length = fs.extent_region(extent)
    assert offset == extent.start_block * fs.sb.block_size
    assert length == 4 * fs.sb.block_size


def test_truncate_frees_tail_blocks():
    """"the close operation truncates it to the actually used space"."""
    fs = _fs(append=16)
    inode = fs.create("/f")
    fs.append_extent(inode)  # 16 blocks = 16 KiB capacity
    fs.truncate(inode, 3 * 1024 + 100)  # keep 4 blocks
    assert inode.size == 3 * 1024 + 100
    assert sum(e.block_count for e in inode.extents) == 4
    assert fs.block_bitmap.used == 4


def test_truncate_to_zero_frees_everything():
    fs = _fs()
    inode = fs.create("/f")
    fs.append_extent(inode, 8)
    fs.truncate(inode, 0)
    assert inode.extents == []
    assert fs.block_bitmap.used == 0


def test_truncate_beyond_allocation_refused():
    fs = _fs()
    inode = fs.create("/f")
    fs.append_extent(inode, 1)
    with pytest.raises(FsError):
        fs.truncate(inode, 4096)


def test_fragmented_allocation_produces_short_extents():
    fs = _fs(blocks=32, append=16)
    a = fs.create("/a")
    b = fs.create("/b")
    fs.append_extent(a, 8)   # [0,8)
    fs.append_extent(b, 8)   # [8,16)
    fs.append_extent(a, 8)   # [16,24)
    fs.truncate(b, 0)        # hole [8,16)
    extent = fs.append_extent(a, 16)  # wants 16, best hole is 8
    assert extent.block_count == 8


def test_extent_helpers():
    extents = [Extent(0, 4), Extent(10, 2)]
    assert total_bytes(extents, 1024) == 6 * 1024
    with pytest.raises(ValueError):
        Extent(-1, 4)
    with pytest.raises(ValueError):
        Extent(0, 0)


def test_resolve_through_file_fails():
    fs = _fs()
    fs.create("/f")
    with pytest.raises(FsError):
        fs.resolve("/f/child")
    with pytest.raises(FsError):
        fs.readdir("/f")
