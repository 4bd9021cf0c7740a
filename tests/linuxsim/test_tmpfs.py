"""Unit tests for the tmpfs model."""

import pytest

from repro.linuxsim.fs import LxFsError, TmpFs


def test_create_and_lookup():
    fs = TmpFs()
    node = fs.create("/f")
    assert fs.lookup("/f") is node
    assert fs.exists("/f")
    with pytest.raises(LxFsError):
        fs.create("/f")


def test_directories_and_nesting():
    fs = TmpFs()
    fs.mkdir("/a")
    fs.mkdir("/a/b")
    fs.create("/a/b/c")
    assert fs.readdir("/a/b") == ["c"]
    with pytest.raises(LxFsError):
        fs.mkdir("/missing/dir")
    with pytest.raises(LxFsError):
        fs.readdir("/a/b/c")


def test_unlink_and_nonempty_dir():
    fs = TmpFs()
    fs.mkdir("/d")
    fs.create("/d/f")
    with pytest.raises(LxFsError):
        fs.unlink("/d")
    fs.unlink("/d/f")
    fs.unlink("/d")
    assert not fs.exists("/d")


def test_path_depth():
    fs = TmpFs()
    assert fs.path_depth("/") == 1
    assert fs.path_depth("/a") == 1
    assert fs.path_depth("/a/b/c") == 3


def test_block_accounting():
    fs = TmpFs()
    assert fs.blocks_of(0) == 0
    assert fs.blocks_of(1) == 1
    assert fs.blocks_of(4096) == 1
    assert fs.blocks_of(4097) == 2
    node = fs.create("/f")
    assert fs.new_blocks_for_write(node, 0, 100) == 1
    node.data.extend(b"x" * 100)
    assert fs.new_blocks_for_write(node, 100, 100) == 0
    assert fs.new_blocks_for_write(node, 4000, 200) == 1
