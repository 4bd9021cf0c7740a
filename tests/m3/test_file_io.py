"""Integration tests: file I/O through VFS, m3fs, capabilities, and DTUs."""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.m3.lib.file import OpenFlags
from repro.m3.services.m3fs.fs import FsError
from repro.m3.system import M3System


def _roundtrip(system, payload, chunk=4096):
    def app(env):
        f = yield from env.vfs.open("/f", OpenFlags.W | OpenFlags.CREATE)
        yield from f.write(payload)
        yield from f.close()
        g = yield from env.vfs.open("/f", OpenFlags.R)
        data = bytearray()
        while True:
            piece = yield from g.read(chunk)
            if not piece:
                break
            data.extend(piece)
        yield from g.close()
        return bytes(data)

    return system.run_app(app, name="io")


def test_write_read_roundtrip(fs_system):
    payload = bytes(range(256)) * 100  # 25.6 KB, several write chunks
    assert _roundtrip(fs_system, payload) == payload


def test_empty_file(fs_system):
    assert _roundtrip(fs_system, b"") == b""


def test_a_read_result_crosses_processes_through_bytes(fs_system):
    """A read inside one extent hands out a read-only view of what is
    stored.  A view does not pickle, so a caller returning read data
    across a process pool (as ``runall``'s evals do) converts it."""
    payload = bytes(range(256)) * 16

    def app(env):
        f = yield from env.vfs.open("/v", OpenFlags.W | OpenFlags.CREATE)
        yield from f.write(payload)
        yield from f.close()
        g = yield from env.vfs.open("/v", OpenFlags.R)
        yield from g.seek(100)
        data = yield from g.read(300)
        yield from g.close()
        return data

    data = fs_system.run_app(app)
    assert type(data) is memoryview and data.readonly
    assert data == payload[100:400]
    with pytest.raises(TypeError):
        pickle.dumps(data)
    assert pickle.loads(pickle.dumps(bytes(data))) == payload[100:400]


def test_small_file_and_stat(fs_system):
    def app(env):
        f = yield from env.vfs.open("/tiny", OpenFlags.W | OpenFlags.CREATE)
        yield from f.write(b"hello")
        yield from f.close()
        return (yield from env.vfs.stat("/tiny"))

    kind, size, links, extents = fs_system.run_app(app)
    assert (kind, size, links, extents) == ("file", 5, 1, 1)


def test_open_missing_file_fails(fs_system):
    def app(env):
        try:
            yield from env.vfs.open("/missing", OpenFlags.R)
        except FsError as exc:
            return str(exc)

    assert "no such file" in fs_system.run_app(app)


def test_read_on_write_only_file_fails(fs_system):
    def app(env):
        f = yield from env.vfs.open("/w", OpenFlags.W | OpenFlags.CREATE)
        try:
            yield from f.read(10)
        except FsError as exc:
            return str(exc)

    assert "not open for reading" in fs_system.run_app(app)


def test_truncate_flag_resets_content(fs_system):
    def app(env):
        f = yield from env.vfs.open("/t", OpenFlags.W | OpenFlags.CREATE)
        yield from f.write(b"original content")
        yield from f.close()
        g = yield from env.vfs.open("/t", OpenFlags.W | OpenFlags.TRUNC)
        yield from g.write(b"new")
        yield from g.close()
        h = yield from env.vfs.open("/t", OpenFlags.R)
        data = yield from h.read(100)
        yield from h.close()
        return data

    assert fs_system.run_app(app) == b"new"


def test_seek_and_partial_reads(fs_system):
    payload = bytes(range(100)) * 50  # 5000 bytes

    def app(env):
        f = yield from env.vfs.open("/s", OpenFlags.W | OpenFlags.CREATE)
        yield from f.write(payload)
        yield from f.close()
        g = yield from env.vfs.open("/s", OpenFlags.R)
        yield from g.seek(1234)
        a = yield from g.read(10)
        yield from g.seek(-10, 2)
        b = yield from g.read(100)
        yield from g.seek(2, 1)  # relative from current EOF position
        c = yield from g.read(10)
        yield from g.close()
        return a, b, c

    a, b, c = fs_system.run_app(app)
    assert a == payload[1234:1244]
    assert b == payload[-10:]
    assert c == b""


def test_write_at_seek_position_overwrites(fs_system):
    def app(env):
        f = yield from env.vfs.open("/o", OpenFlags.RW | OpenFlags.CREATE)
        yield from f.write(b"A" * 100)
        yield from f.seek(10)
        yield from f.write(b"BBBB")
        yield from f.seek(0)
        data = yield from f.read(100)
        yield from f.close()
        return data

    data = fs_system.run_app(app)
    assert data == b"A" * 10 + b"BBBB" + b"A" * 86


def test_multi_extent_file_spans_appends(fs_system):
    """A file larger than one append chunk needs several extents."""
    blocks = fs_system.fs_server.fs.append_blocks
    block_size = fs_system.fs_server.fs.sb.block_size
    payload = b"Z" * (3 * blocks * block_size + 17)

    assert _roundtrip(fs_system, payload) == payload

    inode = fs_system.fs_server.fs.resolve("/f")
    assert inode.extent_count >= 3
    assert inode.size == len(payload)


def test_close_truncates_overallocation(fs_system):
    def app(env):
        f = yield from env.vfs.open("/small", OpenFlags.W | OpenFlags.CREATE)
        yield from f.write(b"x" * 100)
        yield from f.close()
        return ()

    fs_system.run_app(app)
    fs = fs_system.fs_server.fs
    inode = fs.resolve("/small")
    assert inode.size == 100
    assert sum(e.block_count for e in inode.extents) == 1  # one block kept


def test_directories_via_vfs(fs_system):
    def app(env):
        yield from env.vfs.mkdir("/docs")
        f = yield from env.vfs.open("/docs/readme", OpenFlags.W | OpenFlags.CREATE)
        yield from f.write(b"docs!")
        yield from f.close()
        names = yield from env.vfs.readdir("/docs")
        yield from env.vfs.unlink("/docs/readme")
        after = yield from env.vfs.readdir("/docs")
        return names, after

    names, after = fs_system.run_app(app)
    assert names == ["readme"]
    assert after == []


def test_two_apps_share_the_filesystem(fs_system):
    def producer(env):
        f = yield from env.vfs.open("/shared", OpenFlags.W | OpenFlags.CREATE)
        yield from f.write(b"from producer")
        yield from f.close()
        return ()

    def consumer(env):
        f = yield from env.vfs.open("/shared", OpenFlags.R)
        data = yield from f.read(100)
        yield from f.close()
        return data

    fs_system.run_app(producer, name="producer")
    assert fs_system.run_app(consumer, name="consumer") == b"from producer"


def test_file_data_lives_in_simulated_dram(fs_system):
    """White-box: the bytes written must be present in the DRAM model at
    the extent's delegated location."""
    def app(env):
        f = yield from env.vfs.open("/d", OpenFlags.W | OpenFlags.CREATE)
        yield from f.write(b"dram-resident")
        yield from f.close()
        return ()

    fs_system.run_app(app)
    fs = fs_system.fs_server.fs
    inode = fs.resolve("/d")
    region_offset, _ = fs.extent_region(inode.extents[0])
    # The service's DRAM region capability is kernel state:
    service_vpe = fs_system.fs_server.vpe
    region_cap = service_vpe.captable.get(fs_system.fs_server.region.selector)
    base = region_cap.obj.address
    dram = fs_system.platform.dram.memory
    assert dram.read(base + region_offset, 13) == b"dram-resident"


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["write", "seek"]),
            st.integers(min_value=0, max_value=6000),
            st.binary(min_size=1, max_size=3000),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_file_content_matches_reference_model(operations):
    """Arbitrary write/seek sequences read back exactly like a local
    bytearray model (the paper's files are plain byte arrays too)."""
    system = M3System(pe_count=4).boot()

    def app(env):
        f = yield from env.vfs.open("/ref", OpenFlags.RW | OpenFlags.CREATE)
        reference = bytearray()
        position = 0
        for op, offset, payload in operations:
            if op == "seek":
                offset = min(offset, len(reference))
                yield from f.seek(offset)
                position = offset
            else:
                yield from f.write(payload)
                if len(reference) < position:
                    reference.extend(bytes(position - len(reference)))
                reference[position : position + len(payload)] = payload
                position += len(payload)
        yield from f.seek(0)
        data = bytearray()
        while True:
            piece = yield from f.read(4096)
            if not piece:
                break
            data.extend(piece)
        yield from f.close()
        return bytes(data), bytes(reference)

    data, reference = system.run_app(app)
    assert data == reference
