"""Unit and property tests for the memory model (SPMs, device buffers,
DRAM): one sparse record of written extents."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import Scratchpad


def test_fresh_memory_is_zeroed():
    spm = Scratchpad(64)
    assert spm.read(0, 64) == bytes(64)


def test_write_read_roundtrip():
    spm = Scratchpad(128)
    spm.write(10, b"hello")
    assert spm.read(10, 5) == b"hello"
    assert spm.read(9, 1) == b"\x00"


def test_zero_region():
    spm = Scratchpad(32)
    spm.write(0, b"\xff" * 32)
    spm.zero(8, 8)
    assert spm.read(0, 32) == b"\xff" * 8 + bytes(8) + b"\xff" * 16


def test_bounds_enforced():
    spm = Scratchpad(16)
    with pytest.raises(ValueError):
        spm.read(8, 9)
    with pytest.raises(ValueError):
        spm.write(-1, b"x")
    with pytest.raises(ValueError):
        spm.read(0, -1)
    with pytest.raises(ValueError):
        Scratchpad(0)


def test_empty_access_at_end_is_legal():
    spm = Scratchpad(16)
    assert spm.read(16, 0) == b""


@given(st.data())
def test_disjoint_writes_do_not_interfere(data):
    spm = Scratchpad(256)
    offset_a = data.draw(st.integers(min_value=0, max_value=100))
    bytes_a = data.draw(st.binary(min_size=1, max_size=20))
    offset_b = data.draw(st.integers(min_value=130, max_value=230))
    bytes_b = data.draw(st.binary(min_size=1, max_size=20))
    spm.write(offset_a, bytes_a)
    spm.write(offset_b, bytes_b)
    assert spm.read(offset_a, len(bytes_a)) == bytes_a
    assert spm.read(offset_b, len(bytes_b)) == bytes_b


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=200), st.binary(max_size=55)),
        max_size=30,
    )
)
def test_memory_matches_reference_model(writes):
    """The SPM behaves exactly like a plain bytearray."""
    spm = Scratchpad(256)
    reference = bytearray(256)
    for offset, data in writes:
        spm.write(offset, data)
        reference[offset : offset + len(data)] = data
    assert spm.read(0, 256) == bytes(reference)


MIB = 1024 * 1024

#: (memory size, base of the 256-byte window the operations land in): a
#: small SPM, and a DRAM-sized memory with unwritten bytes on both sides
#: of the window.
MEMORIES = [(256, 0), (192 * MIB, 3 * 64 * 1024 - 100)]


def _payload(raw: bytes, kind: str, skip: int):
    """``raw`` as the kind of object a caller may hand to ``write``."""
    padded = b"\xaa" * skip + raw
    if kind == "bytes":
        return raw
    if kind == "bytearray":
        return bytearray(raw)
    if kind == "bytes view":
        return memoryview(padded)[skip:]
    return memoryview(bytearray(padded))[skip:]


#: a few offsets recur, so writes land on each other's edges
_offsets = st.one_of(st.sampled_from([0, 1, 32, 64, 100]),
                     st.integers(min_value=0, max_value=255))
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("write"), _offsets, st.binary(max_size=60),
                  st.sampled_from(["bytes", "bytearray", "bytes view",
                                   "bytearray view"]),
                  st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("zero"), _offsets, st.integers(0, 60)),
        st.tuples(st.just("read"), _offsets, st.integers(0, 80)),
    ),
    max_size=40,
)


@pytest.mark.parametrize("size, base", MEMORIES, ids=["256B", "192MiB"])
@settings(deadline=None, max_examples=200)
@given(operations=_operations)
def test_memory_matches_bytearray_over_writes_zeroes_and_reads(
        size, base, operations):
    """Any mix of payload kinds, overwrites, zeroing and reads across
    extents and gaps reads back exactly like a plain bytearray — and a
    mutable payload changed after its write changes nothing."""
    memory = Scratchpad(size)
    reference = bytearray(256)
    for operation in operations:
        kind, offset = operation[:2]
        if kind == "write":
            data = _payload(*operation[2:])[: 256 - offset]
            memory.write(base + offset, data)
            reference[offset : offset + len(data)] = data
            if operation[3].startswith("bytearray"):
                data[:] = b"\xee" * len(data)
        elif kind == "zero":
            length = min(operation[2], 256 - offset)
            memory.zero(base + offset, length)
            reference[offset : offset + length] = bytes(length)
        else:
            length = min(operation[2], 256 - offset)
            got = memory.read(base + offset, length)
            assert type(got) in (bytes, memoryview)
            assert memoryview(got).readonly
            assert got == reference[offset : offset + length]
    assert memory.read(base, 256) == reference
    if size > 256:
        assert memory.read(base - 64, 64) == bytes(64)
        assert memory.read(base + 256, 64) == bytes(64)


def test_mutating_a_written_buffer_leaves_memory_unchanged():
    spm = Scratchpad(64)
    buffer = bytearray(b"abcd")
    spm.write(0, buffer)
    spm.write(8, memoryview(buffer)[1:3])
    buffer[:] = b"WXYZ"
    assert spm.read(0, 10) == b"abcd" + bytes(4) + b"bc"


def test_exact_read_of_an_immutable_extent_is_that_object():
    spm = Scratchpad(1024)
    payload = bytes(range(100))
    spm.write(8, payload)
    assert spm.read(8, 100) is payload
    spm.write(200, memoryview(payload)[10:20])
    assert spm.read(200, 10) == payload[10:20]


def test_a_view_read_before_an_overwrite_keeps_the_old_bytes():
    spm = Scratchpad(64)
    spm.write(0, b"abcdef")
    view = spm.read(1, 3)
    spm.write(0, b"XYZXYZ")
    spm.write(2, bytearray(b"??"))
    spm.zero(0, 64)
    assert view == b"bcd"


def test_a_read_view_is_read_only():
    spm = Scratchpad(64)
    spm.write(0, b"abcdef")
    view = spm.read(2, 3)
    assert type(view) is memoryview and view.readonly
    with pytest.raises(TypeError):
        view[0] = 0
    assert spm.read(0, 6) == b"abcdef"


def test_a_small_view_keeps_at_most_its_extent_alive():
    """A 16 B view of a 1 MiB extent pins that extent — and nothing
    more — once the memory has overwritten it and the writer let go."""
    memory = Scratchpad(4 * MIB)
    tracemalloc.start()
    try:
        baseline, _peak = tracemalloc.get_traced_memory()
        payload = bytes(range(256)) * (MIB // 256)
        memory.write(MIB, payload)
        view = memory.read(MIB + 1000, 16)
        memory.write(MIB, b"\x01" * 64)
        memory.zero(MIB + 64, MIB - 64)
        del payload
        pinned, _peak = tracemalloc.get_traced_memory()
        assert view == bytes(range(232, 248))
        del view
        released, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert MIB <= pinned - baseline < MIB + 64 * 1024
    # the memory itself no longer holds the old extent
    assert released - baseline < 64 * 1024
    assert memory.read(MIB, MIB) == b"\x01" * 64 + bytes(MIB - 64)


@pytest.mark.parametrize("base", [0, 5])
def test_a_read_inside_one_extent_is_just_that_slice(base):
    spm = Scratchpad(64)
    spm.write(base, b"abcdef")
    assert spm.read(base, 3) == b"abc"
    assert spm.read(base + 2, 2) == b"cd"
    assert spm.read(base + 3, 3) == b"def"


def test_a_small_write_into_a_large_memory_stays_small():
    """DRAM-sized memories cost what is written, not their size."""
    tracemalloc.start()
    try:
        memory = Scratchpad(192 * MIB, name="dram")
        memory.write(100 * MIB + 3, bytes(4096))
        assert memory.read(100 * MIB, 4100) == bytes(4100)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
