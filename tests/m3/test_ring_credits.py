"""The kernel's credit grants against a service's receive ring.

Every session's send gate holds 2 credits and the kernel's own channel
to the service holds one per slot, so 65 clients of m3fs's 64-slot ring
can have more requests in flight than it can hold (ROADMAP item 12).
"""

import pytest

from repro.eval.fig6_scale import average_instance_time
from repro.m3.services.m3fs.superblock import SuperBlock
from repro.m3.system import M3System

CLIENTS = 65


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="the m3fs ring drops the 65th client's request, "
                          "which then never exits")
def test_more_clients_than_ring_slots_lose_no_request():
    system = M3System(pe_count=CLIENTS + 8, mesh_width=16, mesh_height=16,
                      dram_bytes=512 * 1024 * 1024).boot(
        fs_kwargs={"superblock": SuperBlock(total_blocks=480 * 1024)})
    dtu = system.fs_servers["m3fs"].env.dtu
    try:
        average_instance_time(system, "sqlite", CLIENTS)
    except RuntimeError as error:
        assert dtu.messages_dropped == 1 and "went idle" in str(error)
        assert f"PE {dtu.node}'s DTU dropped 1 message(s)" in str(error)
        raise
    assert dtu.messages_dropped == 0
