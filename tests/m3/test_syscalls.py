"""Syscall-level integration tests (application <-> kernel over DTUs)."""

import pytest

from repro.dtu.registers import MemoryPerm
from repro.m3.kernel import syscalls
from repro.m3.kernel.kernel import KERNEL_REPLY_EP, SyscallError
from repro.m3.lib.gate import MemGate
from repro.m3.system import M3System


def test_noop_syscall_roundtrip(system):
    def app(env):
        result = yield from env.syscall(syscalls.NOOP)
        return result

    assert system.run_app(app) == ()
    assert system.kernel.syscall_count >= 1


def test_idle_turns_leave_the_reply_inbox_at_most_one_registration():
    """The kernel races its inbox signals at every idle turn; a syscall
    wins each race, and the win withdraws it from the reply inbox's
    signal, so 200 syscalls leave that signal one registration, not one
    per turn."""
    system = M3System(pe_count=4).boot()

    def app(env):
        for _ in range(200):
            yield from env.syscall(syscalls.NOOP)

    system.run_app(app)
    assert system.kernel.syscall_count >= 200
    assert system.kernel.dtu.signal(KERNEL_REPLY_EP).waiting <= 1


def test_noop_syscall_cost_near_paper_value(system):
    """Section 5.3: "a system call on M3 via DTU takes about 200 cycles"."""

    def app(env):
        start = env.sim.now
        yield from env.syscall(syscalls.NOOP)
        return env.sim.now - start

    cycles = system.run_app(app)
    assert 150 <= cycles <= 260, f"null syscall took {cycles} cycles"


def test_dispatch_table_covers_exactly_the_abi(system):
    """Every opcode the ABI module declares has a handler, and the
    kernel serves nothing the ABI does not name."""
    opcodes = {value for name, value in vars(syscalls).items()
               if name.isupper() and isinstance(value, str)}
    assert system.kernel.syscall_table.keys() == opcodes


def test_unknown_syscall_reports_error(system):
    def app(env):
        try:
            yield from env.syscall("frobnicate")
        except SyscallError as exc:
            return str(exc)

    assert system.run_app(app) == "unknown syscall 'frobnicate'"


def test_request_mem_and_rdma_roundtrip(system):
    def app(env):
        gate = yield from MemGate.create(env, 4096, MemoryPerm.RW.value)
        yield from gate.write(100, b"dram payload")
        return (yield from gate.read(100, 12))

    assert system.run_app(app) == b"dram payload"


def test_request_mem_allocations_are_disjoint(system):
    def app(env):
        a = yield from MemGate.create(env, 4096, MemoryPerm.RW.value)
        b = yield from MemGate.create(env, 4096, MemoryPerm.RW.value)
        yield from a.write(0, b"A" * 16)
        yield from b.write(0, b"B" * 16)
        return (yield from a.read(0, 16))

    assert system.run_app(app) == b"A" * 16


def test_derive_mem_restricts_window(system):
    def app(env):
        gate = yield from MemGate.create(env, 4096, MemoryPerm.RW.value)
        yield from gate.write(256, b"hello sub-region")
        sub = yield from gate.derive(256, 64, MemoryPerm.READ.value)
        data = yield from sub.read(0, 16)
        try:
            yield from sub.write(0, b"nope")
        except Exception as exc:
            return (data, type(exc).__name__)

    data, error = system.run_app(app)
    assert data == b"hello sub-region"
    assert error == "NoPermission"


def test_derive_mem_cannot_widen_permissions(system):
    def app(env):
        gate = yield from MemGate.create(env, 4096, MemoryPerm.READ.value)
        try:
            yield from gate.derive(0, 64, MemoryPerm.RW.value)
        except SyscallError as exc:
            return str(exc)

    assert "widen" in system.run_app(app)


def test_activate_rejects_bad_endpoint(system):
    def app(env):
        try:
            yield from env.syscall(syscalls.ACTIVATE, 99, 0)
        except SyscallError as exc:
            return str(exc)

    assert "out of range" in system.run_app(app)


def test_activate_rejects_vpe_capability(system):
    from repro.m3.lib.vpe import VPE

    def app(env):
        child = yield from VPE.create(env, "c")
        try:
            yield from env.syscall(syscalls.ACTIVATE, 2, child.selector)
        except SyscallError as exc:
            return str(exc)

    assert "cannot activate" in system.run_app(app)


def test_rgate_sgate_messaging_between_apps(system):
    """Two applications, channel set up by syscalls, then direct."""
    from repro.m3.lib.gate import RecvGate, SendGate

    def receiver(env, results):
        rgate = yield from RecvGate.create(env, slot_size=128, slot_count=4)
        sgate_sel = yield from env.syscall(
            syscalls.CREATE_SGATE, rgate.selector, 0x42, 4
        )
        results["sgate_sel"] = sgate_sel
        results["rgate"] = rgate
        slot, message = yield from rgate.receive()
        rgate.ack(slot)
        return (message.label, message.payload)

    results = {}
    receiver_vpe = system.spawn(receiver, results, name="receiver")
    system.sim.run()  # until receiver blocks on its gate

    def sender(env):
        # In a real system the selector arrives via delegation; the
        # test shortcut transplants it through the kernel's table.
        recv_vpe = system.kernel.vpes[receiver_vpe.id]
        cap = recv_vpe.captable.get(results["sgate_sel"])
        own_sel = system.kernel.vpes[env.vpe_id].captable.insert(cap.derive())
        sgate = SendGate(env, own_sel)
        yield from sgate.send(("direct", 1), 32)

    system.run_app(sender, name="sender")
    label, payload = system.wait(receiver_vpe)
    assert label == 0x42
    assert payload == ("direct", 1)


def test_revoke_tears_down_memory_access(system):
    from repro.m3.lib.vpe import VPE

    def parent(env):
        gate = yield from MemGate.create(env, 4096, MemoryPerm.RW.value)
        yield from gate.write(0, b"secret")
        child = yield from VPE.create(env, "child")
        child_sel = yield from child.delegate(gate.selector)
        yield from child.run(child_reader, child_sel)
        yield 2000  # let the child read once
        yield from env.syscall(syscalls.REVOKE, gate.selector)
        return (yield from child.wait())

    def child_reader(env, mem_sel):
        gate = MemGate(env, mem_sel)
        first = yield from gate.read(0, 6)
        yield 4000  # revocation happens here
        try:
            yield from gate.read(0, 6)
            return (first, "still-works")
        except Exception as exc:
            return (first, type(exc).__name__)

    first, second = system.run_app(parent, name="parent")
    assert first == b"secret"
    assert second == "NoPermission"
