"""Unit and property tests for the kernel's DRAM allocator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.m3.kernel.memmgr import ALIGN, MemoryManager, OutOfMemory


def test_simple_allocation_progression():
    mm = MemoryManager(0, 1024)
    a = mm.allocate(128)
    b = mm.allocate(128)
    assert a != b
    assert mm.free_bytes == 1024 - 256


def test_alignment_respected():
    mm = MemoryManager(0, 1024)
    mm.allocate(10)
    aligned = mm.allocate(16)
    assert aligned == ALIGN
    # The gap the alignment skipped stays free for later.
    assert mm.free_bytes == 1024 - 10 - 16


def test_exhaustion_raises():
    mm = MemoryManager(0, 256)
    mm.allocate(256)
    with pytest.raises(OutOfMemory):
        mm.allocate(1)


def test_free_allows_reuse():
    mm = MemoryManager(0, 256)
    address = mm.allocate(256)
    mm.free(address, 256)
    assert mm.allocate(256) == address


def test_coalescing_restores_large_hole():
    mm = MemoryManager(0, 1024)
    a = mm.allocate(512)
    b = mm.allocate(512)
    mm.free(a, 512)
    mm.free(b, 512)
    assert mm.largest_hole == 1024


def test_double_free_detected():
    mm = MemoryManager(0, 1024)
    a = mm.allocate(64)
    mm.free(a, 64)
    with pytest.raises(ValueError):
        mm.free(a, 64)


def test_free_outside_region_rejected():
    mm = MemoryManager(100, 100)
    with pytest.raises(ValueError):
        mm.free(0, 50)


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        MemoryManager(0, 0)
    mm = MemoryManager(0, 64)
    with pytest.raises(ValueError):
        mm.allocate(0)


@given(st.data())
def test_allocations_are_disjoint_and_in_bounds(data):
    mm = MemoryManager(0, 4096)
    live = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=40))):
        if live and data.draw(st.booleans()):
            address, size = live.pop(data.draw(
                st.integers(min_value=0, max_value=len(live) - 1)))
            mm.free(address, size)
            continue
        size = data.draw(st.integers(min_value=1, max_value=512))
        try:
            address = mm.allocate(size)
        except OutOfMemory:
            continue
        assert 0 <= address and address % ALIGN == 0 and address + size <= 4096
        for other_addr, other_size in live:
            assert address + size <= other_addr or other_addr + other_size <= address
        live.append((address, size))
    assert mm.free_bytes == 4096 - sum(size for _, size in live)
