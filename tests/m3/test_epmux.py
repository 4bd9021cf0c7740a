"""Endpoint multiplexing: more gates than the DTU has endpoints."""

import pytest

from repro.dtu.registers import MemoryPerm
from repro.m3.lib.gate import MemGate


def test_many_gates_share_few_endpoints(system):
    """With 8 EPs (2 reserved), 10 memory gates must multiplex over 6
    endpoints — libm3 re-activates on demand (Section 4.5.4)."""

    def app(env):
        gates = []
        for index in range(10):
            gate = yield from MemGate.create(env, 1024, MemoryPerm.RW.value)
            yield from gate.write(0, bytes([index]) * 16)
            gates.append(gate)
        # Round-robin over all gates: every pass forces evictions.  A
        # read is no syscall; re-binding a gate is an ACTIVATE.
        before = system.kernel.syscall_count
        for _round in range(3):
            for index, gate in enumerate(gates):
                data = yield from gate.read(0, 16)
                assert data == bytes([index]) * 16
        return system.kernel.syscall_count - before

    activations = system.run_app(app)
    # 10 gates, 6 slots: at least one eviction-driven reactivation per
    # round beyond the initial bindings.
    assert activations > 10


def test_bound_gate_reuses_endpoint_without_syscalls(system):
    def app(env):
        gate = yield from MemGate.create(env, 1024, MemoryPerm.RW.value)
        yield from gate.write(0, b"warm")
        syscalls_before = env.syscall_count
        for _ in range(5):
            yield from gate.read(0, 4)
        return env.syscall_count - syscalls_before

    assert system.run_app(app) == 0  # the binding is cached


def test_eviction_is_lru(system):
    def app(env):
        gates = []
        for index in range(7):  # one more than the 6 free endpoints
            gate = yield from MemGate.create(env, 1024, MemoryPerm.RW.value)
            gates.append(gate)
        for gate in gates[:6]:  # bind the first six
            yield from gate.read(0, 1)
        yield from gates[0].read(0, 1)  # refresh gate 0
        yield from gates[6].read(0, 1)  # must evict gate 1 (LRU), not 0
        assert gates[0].ep is not None
        assert gates[1].ep is None
        return ()

    system.run_app(app)


def test_pinned_receive_gates_never_evicted(system):
    from repro.m3.lib.gate import RecvGate

    def app(env):
        rgate = yield from RecvGate.create(env)
        pinned_ep = rgate.ep
        for _ in range(12):  # plenty of pressure
            gate = yield from MemGate.create(env, 512, MemoryPerm.RW.value)
            yield from gate.read(0, 1)
        assert rgate.ep == pinned_ep
        return ()

    system.run_app(app)
