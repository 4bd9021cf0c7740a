"""Unit tests for platform assembly and the PE model."""

import pytest

from repro.hw import Platform, PlatformConfig


def test_build_places_dram_on_last_node():
    platform = Platform.build(pe_count=4)
    assert platform.dram_node == platform.topology.node_count - 1
    assert len(platform.pes) == 4


def test_heterogeneous_build():
    platform = Platform.build(pe_count=2, accelerators={"fft-accel": 1})
    types = [pe.core.type.name for pe in platform.pes]
    assert types == ["xtensa", "xtensa", "fft-accel"]


def test_too_many_pes_rejected():
    with pytest.raises(ValueError):
        Platform.build(pe_count=16, mesh_width=4, mesh_height=4)


def test_unknown_core_type_rejected():
    with pytest.raises(ValueError):
        PlatformConfig(pe_types=["quantum"])


def test_find_free_pe_skips_busy_and_filters_type():
    platform = Platform.build(pe_count=2, accelerators={"fft-accel": 1})

    def forever():
        while True:
            yield 1000

    platform.pe(0).run(forever(), "hog")
    free = platform.find_free_pe()
    assert free is platform.pe(1)
    accel = platform.find_free_pe("fft-accel")
    assert accel is platform.pe(2)
    assert platform.find_free_pe("no-such-type") is None


def test_pe_single_occupancy():
    platform = Platform.build(pe_count=1)
    pe = platform.pe(0)

    def body():
        yield 10

    pe.run(body(), "first")
    with pytest.raises(RuntimeError):
        pe.run(body(), "second")
    platform.sim.run()
    assert not pe.busy  # occupant finished


def test_pe_release_resets_allocator():
    platform = Platform.build(pe_count=1)
    pe = platform.pe(0)
    first = pe.alloc_buffer(1024)
    second = pe.alloc_buffer(1024)
    assert second == first + 1024
    pe.release()
    assert pe.alloc_buffer(16) == first


def test_spm_exhaustion():
    platform = Platform.build(pe_count=1)
    pe = platform.pe(0)
    with pytest.raises(MemoryError):
        pe.alloc_buffer(pe.spm_data.size + 1)


def test_compute_charges_app_tag():
    platform = Platform.build(pe_count=1)
    pe = platform.pe(0)

    def body():
        yield pe.compute(500)

    platform.sim.run_process(body())
    assert platform.sim.ledger.total("app") == 500
