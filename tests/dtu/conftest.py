"""Shared fixtures: a small platform with helper wiring for DTU tests."""

import pytest

from repro.dtu.registers import EndpointRegisters, MemoryPerm
from repro.hw import Platform


def build_platform(reliable=False):
    """Four PEs and the DRAM module, every DTU in the given mode."""
    platform = Platform.build(pe_count=4, mesh_width=3, mesh_height=2)
    if reliable:
        platform.enable_reliable_messaging()
    return platform


#: for a test that builds its own platform, once per mode.
BOTH_MODES = pytest.mark.parametrize("reliable", [False, True],
                                     ids=["best-effort", "reliable"])


@pytest.fixture
def platform():
    return build_platform()


def configure_channel(
    sender_dtu,
    receiver_dtu,
    send_ep=0,
    recv_ep=1,
    label=0xABCD,
    credits=4,
    slot_size=128,
    slot_count=4,
):
    """Wire a send EP at the sender to a receive EP at the receiver.

    Uses the boot-time privilege of the DTUs (all privileged until a
    kernel downgrades them) to write the registers locally, exactly how
    boot code would.
    """
    receiver_dtu.configure_local(
        "configure",
        recv_ep,
        EndpointRegisters.receive_config(
            buffer_addr=0, slot_size=slot_size, slot_count=slot_count
        ),
    )
    sender_dtu.configure_local(
        "configure",
        send_ep,
        EndpointRegisters.send_config(
            target_node=receiver_dtu.node,
            target_ep=recv_ep,
            label=label,
            credits=credits,
            msg_size=slot_size,
        ),
    )


def configure_memory_ep(dtu, ep, target_node, address, size, perm=MemoryPerm.RW):
    dtu.configure_local(
        "configure",
        ep,
        EndpointRegisters.memory_config(target_node, address, size, perm),
    )
