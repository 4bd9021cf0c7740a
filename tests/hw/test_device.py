"""Devices with interrupts-as-messages (the Section 4.4.2 idea)."""

from repro.dtu.registers import EndpointRegisters
from repro.hw.device import IRQ_SEND_EP, NetworkDevice
from repro.m3.lib.gate import RecvGate
from repro.m3.system import M3System


def _system_with_nic():
    system = M3System(pe_count=4).boot(with_fs=False)
    nic_node = len(system.platform.pes)  # first unused mesh node
    nic = NetworkDevice(system.sim, system.platform.network, nic_node)
    return system, nic


def _wire_irq(system, device, node, ep):
    """Kernel wires the device's interrupt endpoint to an app rgate —
    "sent them to any PE, independent of the core"."""

    def configure():
        yield from system.kernel.dtu.configure_remote(
            device.node,
            "configure",
            IRQ_SEND_EP,
            EndpointRegisters.send_config(
                target_node=node,
                target_ep=ep,
                label=0xD1,
                credits=4,
                msg_size=64,
            ),
        )

    system.sim.run_process(configure(), "wire-irq")


def test_interrupt_arrives_as_message():
    system, nic = _system_with_nic()

    def app(env):
        rgate = yield from RecvGate.create(env, slot_size=64, slot_count=4)
        _wire_irq(system, nic, env.pe.node, rgate.ep)
        nic.raise_interrupt(("rx", 0, 0))
        slot, message = yield from rgate.receive()
        rgate.ack(slot)
        return message.payload

    assert system.run_app(app, name="irq-app") == ("irq", "nic", ("rx", 0, 0))


def test_unwired_interrupt_is_masked():
    system, nic = _system_with_nic()
    nic.raise_interrupt()
    assert nic.dtu.messages_sent == 0  # dropped, no crash
