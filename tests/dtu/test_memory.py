"""RDMA-style memory endpoints: DRAM and remote-SPM access."""

import pytest

from repro.dtu import MemoryPerm, NoPermission
from repro.sim import Simulator
from tests.dtu.conftest import configure_memory_ep


def test_dram_write_then_read_roundtrip(platform):
    dtu = platform.pe(0).dtu
    configure_memory_ep(dtu, 0, platform.dram_node, 0x1000, 4096)

    def software():
        yield from dtu.write_memory(0, 128, b"persistent payload")
        data = yield from dtu.read_memory(0, 128, 18)
        return data

    assert platform.sim.run_process(software()) == b"persistent payload"
    assert platform.dram.memory.read(0x1000 + 128, 18) == b"persistent payload"


def test_read_into_local_spm(platform):
    pe = platform.pe(0)
    configure_memory_ep(pe.dtu, 0, platform.dram_node, 0, 1024)
    platform.dram.memory.write(64, b"from dram")

    def software():
        yield from pe.dtu.read_memory(0, 64, 9, into_addr=200)

    platform.sim.run_process(software())
    assert pe.spm_data.read(200, 9) == b"from dram"


def test_write_from_local_spm(platform):
    pe = platform.pe(0)
    configure_memory_ep(pe.dtu, 0, platform.dram_node, 0, 1024)
    pe.spm_data.write(300, b"spm bytes")

    def software():
        yield from pe.dtu.write_memory(0, 500, b"\x00" * 9, from_addr=300)

    platform.sim.run_process(software())
    assert platform.dram.memory.read(500, 9) == b"spm bytes"


def test_remote_spm_access_is_rdma(platform):
    """Reading another PE's SPM involves no software on the passive side."""
    reader, target = platform.pe(0), platform.pe(1)
    target.spm_data.write(0, b"remote-spm-data")
    configure_memory_ep(reader.dtu, 0, target.node, 0, 64, MemoryPerm.READ)

    def software():
        return (yield from reader.dtu.read_memory(0, 0, 15))

    assert platform.sim.run_process(software()) == b"remote-spm-data"
    assert not target.busy  # nothing ever ran on the target PE


def test_bounds_checked_against_region(platform):
    dtu = platform.pe(0).dtu
    configure_memory_ep(dtu, 0, platform.dram_node, 0x1000, 256)

    def overflow():
        yield from dtu.read_memory(0, 200, 100)

    with pytest.raises(NoPermission):
        platform.sim.run_process(overflow())


def test_permissions_enforced(platform):
    dtu = platform.pe(0).dtu
    configure_memory_ep(dtu, 0, platform.dram_node, 0, 256, MemoryPerm.READ)

    def forbidden_write():
        yield from dtu.write_memory(0, 0, b"x")

    with pytest.raises(NoPermission):
        platform.sim.run_process(forbidden_write())

    configure_memory_ep(dtu, 1, platform.dram_node, 0, 256, MemoryPerm.WRITE)

    def forbidden_read():
        yield from dtu.read_memory(1, 0, 1)

    with pytest.raises(NoPermission):
        platform.sim.run_process(forbidden_read())


def test_memory_op_on_wrong_ep_kind(platform):
    dtu = platform.pe(0).dtu

    def bad():
        yield from dtu.read_memory(3, 0, 1)

    with pytest.raises(NoPermission):
        platform.sim.run_process(bad())


def test_transfer_bandwidth_dominates_large_reads(platform):
    """A 4 KiB transfer should cost roughly size/8 cycles end to end."""
    dtu = platform.pe(0).dtu
    configure_memory_ep(dtu, 0, platform.dram_node, 0, 8192)

    def software():
        start = platform.sim.now
        yield from dtu.read_memory(0, 0, 4096)
        return platform.sim.now - start

    elapsed = platform.sim.run_process(software())
    serialization = 4096 / 8
    assert serialization <= elapsed <= serialization * 1.5


def test_memory_roundtrip_charged_as_xfer(platform):
    dtu = platform.pe(0).dtu
    configure_memory_ep(dtu, 0, platform.dram_node, 0, 8192)

    def software():
        yield from dtu.read_memory(0, 0, 1024)

    platform.sim.run_process(software())
    assert platform.sim.ledger.total("xfer") >= 1024 / 8


def test_best_effort_read_schedules_only_the_packets_it_moves(platform,
                                                              monkeypatch):
    """A best-effort RDMA read is two packets, and nothing else is put
    on the event queue for it: the request's injection and delivery,
    the DRAM access, the response's delivery.  (The DTU used to build
    and trigger a delivery event for the request that nobody awaited —
    one more heap entry per transaction.)"""
    dtu = platform.pe(0).dtu
    configure_memory_ep(dtu, 0, platform.dram_node, 0, 1024)
    scheduled = []
    schedule = Simulator.schedule

    def recording(sim, delay, callback, argument=None):
        scheduled.append(callback.__qualname__)
        return schedule(sim, delay, callback, argument)

    monkeypatch.setattr(Simulator, "schedule", recording)

    def software():
        return (yield from dtu.read_memory(0, 0, 64))

    assert platform.sim.run_process(software()) == bytes(64)
    assert scheduled == [
        "Network.send",              # the request, once injected
        "DramModule.handle_packet",  # ...delivered to the DRAM module
        "DramModule._respond",       # the DRAM access time
        "DTU.handle_packet",         # the response, delivered back
    ]
    assert platform.sim.pending_events == 0
