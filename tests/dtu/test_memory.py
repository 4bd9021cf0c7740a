"""RDMA-style memory endpoints: DRAM and remote-SPM access."""

import pytest

from repro.dtu import MemoryPerm, NoPermission
from repro.sim import Simulator
from tests.dtu.conftest import (
    BOTH_MODES,
    build_platform,
    configure_channel,
    configure_memory_ep,
)


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


#: How many events (``Simulator.schedule`` + ``call_soon`` calls) one
#: transfer puts on the queue, as (best-effort, reliable) — counted on
#: the DTU that still had a separate code path per mode.  Best-effort: a
#: message is its injection, its delivery and the sender's completion;
#: a request is its injection and delivery, the access time at a memory
#: target, and the response's delivery.  Reliable: a message's
#: completion is the ack's delivery instead, and every transfer arms
#: one retransmit timer.  Nothing else — no event nobody awaits — and
#: the same numbers from whichever code path: the *order* of same-cycle
#: events, hence every simulated result, hangs on them.
EVENTS_PER_TRANSFER = {
    "send": (3, 4),
    "reply": (3, 4),
    "read": (4, 5),
    "write": (4, 5),
    "config": (3, 4),
}


@BOTH_MODES
@pytest.mark.parametrize("kind", EVENTS_PER_TRANSFER)
def test_one_transfer_schedules_only_what_it_moves(kind, reliable,
                                                   monkeypatch):
    platform = build_platform(reliable)
    near, far = platform.pe(0).dtu, platform.pe(1).dtu
    configure_channel(near, far)
    configure_channel(far, near, send_ep=5, recv_ep=2)
    configure_memory_ep(near, 3, platform.dram_node, 0, 1024)
    if kind == "reply":
        near.send(0, "request", 8, reply_ep=2)
        platform.sim.run()
        slot, _request = far.fetch_message(1)
    scheduled = []

    def recording(original):
        def wrapper(sim, *args):
            scheduled.append(args)
            return original(sim, *args)
        return wrapper

    def transfer():
        # Counted from inside the process, so starting it is not.
        for name in ("schedule", "call_soon"):
            monkeypatch.setattr(Simulator, name,
                                recording(getattr(Simulator, name)))
        if kind == "send":
            yield near.send(0, "x", 8)
        elif kind == "reply":
            yield far.reply(1, slot, "response", 8)
        elif kind == "read":
            assert (yield from near.read_memory(3, 0, 64)) == bytes(64)
        elif kind == "write":
            yield from near.write_memory(3, 0, b"x" * 64)
        else:
            yield from near.configure_remote(far.node, "refill_credits", 5)

    platform.sim.run_process(transfer())
    platform.sim.run()  # a reliable transfer's timer fires into nothing
    assert len(scheduled) == EVENTS_PER_TRANSFER[kind][reliable]
    assert platform.sim.pending_events == 0
    assert near.idle and far.idle
