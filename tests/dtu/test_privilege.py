"""NoC-level isolation: privilege and remote configuration."""

import pytest

from repro.dtu import EndpointKind, EndpointRegisters, NoPermission
from tests.dtu.conftest import configure_channel


def test_all_dtus_privileged_at_boot(platform):
    assert all(pe.dtu.privileged for pe in platform.pes)


def test_kernel_downgrades_application_pe(platform):
    kernel, app = platform.pe(0).dtu, platform.pe(1).dtu

    def boot():
        yield from kernel.configure_remote(app.node, "downgrade")

    platform.sim.run_process(boot())
    assert not app.privileged
    assert kernel.privileged


def test_unprivileged_dtu_cannot_configure_remotely(platform):
    kernel, app, victim = (platform.pe(i).dtu for i in range(3))

    def boot():
        yield from kernel.configure_remote(app.node, "downgrade")

    platform.sim.run_process(boot())

    def attack():
        yield from app.configure_remote(
            victim.node,
            "configure",
            0,
            EndpointRegisters.receive_config(0, 64, 4),
        )

    with pytest.raises(NoPermission):
        platform.sim.run_process(attack())
    assert victim.eps[0].kind == EndpointKind.INVALID


def test_unprivileged_dtu_cannot_write_own_registers(platform):
    kernel, app = platform.pe(0).dtu, platform.pe(1).dtu

    def boot():
        yield from kernel.configure_remote(app.node, "downgrade")

    platform.sim.run_process(boot())
    with pytest.raises(NoPermission):
        app.configure_local("configure", 0, EndpointRegisters.receive_config(0, 64, 4))


def test_kernel_configures_remote_channel_then_apps_communicate(platform):
    """The Figure 2 flow: a kernel sets up both endpoints; afterwards the
    sender and receiver communicate without any kernel involvement."""
    kernel = platform.pe(0).dtu
    sender, receiver = platform.pe(1).dtu, platform.pe(2).dtu

    def boot():
        yield from kernel.configure_remote(sender.node, "downgrade")
        yield from kernel.configure_remote(receiver.node, "downgrade")
        yield from kernel.configure_remote(
            receiver.node,
            "configure",
            1,
            EndpointRegisters.receive_config(0, slot_size=128, slot_count=4),
        )
        yield from kernel.configure_remote(
            sender.node,
            "configure",
            0,
            EndpointRegisters.send_config(
                target_node=receiver.node, target_ep=1, label=7, credits=4,
                msg_size=128,
            ),
        )

    platform.sim.run_process(boot())

    def tx():
        yield sender.send(0, "direct", 8)

    def rx():
        slot, message = yield from receiver.wait_message(1)
        receiver.ack_message(1, slot)
        return message.payload

    platform.pe(1).run(tx(), "tx")
    proc = platform.pe(2).run(rx(), "rx")
    platform.sim.run()
    assert proc.done.value == "direct"


def test_kernel_can_reupgrade_pe(platform):
    kernel, app = platform.pe(0).dtu, platform.pe(1).dtu

    def flow():
        yield from kernel.configure_remote(app.node, "downgrade")
        assert not app.privileged
        yield from kernel.configure_remote(app.node, "upgrade")

    platform.sim.run_process(flow())
    assert app.privileged


def test_invalidate_endpoint_remotely(platform):
    kernel = platform.pe(0).dtu
    sender, receiver = platform.pe(1).dtu, platform.pe(2).dtu
    configure_channel(sender, receiver)

    def flow():
        yield from kernel.configure_remote(sender.node, "invalidate", 0)

    platform.sim.run_process(flow())
    assert sender.eps[0].kind == EndpointKind.INVALID
    with pytest.raises(NoPermission):
        sender.send(0, "x", 8)
