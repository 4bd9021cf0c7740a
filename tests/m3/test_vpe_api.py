"""Integration tests for the VPE API (create/run/exec/wait/revoke)."""

import pytest

from repro.dtu.registers import MemoryPerm
from repro.m3.kernel import syscalls
from repro.m3.kernel.kernel import SyscallError
from repro.m3.kernel.vpe import VpeState
from repro.m3.lib.file import OpenFlags
from repro.m3.lib.gate import MemGate
from repro.m3.lib.vpe import VPE


def test_run_executes_lambda_with_args(system):
    """The paper's VPE::run example: captured arguments, exit code back."""

    def child(env, a, b):
        yield env.compute(10)
        return a + b

    def parent(env):
        vpe = yield from VPE.create(env, "adder")
        yield from vpe.run(child, 4, 5)
        return (yield from vpe.wait())

    assert system.run_app(parent) == 9


def test_children_run_on_distinct_pes(system):
    def child(env):
        # Long enough that both children are alive at the same time —
        # a freed PE may legitimately be reused after an exit.
        yield env.compute(100_000)
        return env.pe.node

    def parent(env):
        nodes = [env.pe.node]
        vpes = []
        for index in range(2):
            vpe = yield from VPE.create(env, f"child{index}")
            yield from vpe.run(child)
            vpes.append(vpe)
        for vpe in vpes:
            nodes.append((yield from vpe.wait()))
        return nodes

    nodes = system.run_app(parent)
    assert len(set(nodes)) == 3  # parent + two children, all distinct


def test_children_actually_run_in_parallel(system):
    """Two children computing N cycles each finish in ~N, not ~2N."""

    def child(env):
        yield env.compute(50_000)
        return ()

    def parent(env):
        vpes = []
        for index in range(2):
            vpe = yield from VPE.create(env, f"child{index}")
            yield from vpe.run(child)
            vpes.append(vpe)
        start = env.sim.now
        for vpe in vpes:
            yield from vpe.wait()
        return env.sim.now - start

    elapsed = system.run_app(parent)
    assert elapsed < 80_000  # far less than the serial 100k


def test_wait_returns_after_exit_too(system):
    def child(env):
        yield env.compute(10)
        return 77

    def parent(env):
        vpe = yield from VPE.create(env, "c")
        yield from vpe.run(child)
        yield 50_000  # child exits long before the wait
        return (yield from vpe.wait())

    assert system.run_app(parent) == 77


def test_create_requesting_accelerator_type():
    from repro.m3.system import M3System

    system = M3System(pe_count=3, accelerators={"fft-accel": 1}).boot(
        with_fs=False
    )

    def child(env):
        yield env.compute_op("fft", 1024)
        return env.pe.core.type.name

    def parent(env):
        vpe = yield from VPE.create(env, "fft", pe_type="fft-accel")
        yield from vpe.run(child)
        return (yield from vpe.wait())

    assert system.run_app(parent) == "fft-accel"


def test_create_fails_when_no_pe_available(system):
    def hog(env):
        yield 10**9
        return ()

    def parent(env):
        vpes = []
        try:
            for index in range(10):
                vpe = yield from VPE.create(env, f"hog{index}")
                yield from vpe.run(hog)
                vpes.append(vpe)
        except SyscallError as exc:
            return (len(vpes), str(exc))

    count, error = system.run_app(parent)
    assert "no free PE" in error
    assert count >= 2


def test_revoke_resets_pe_and_frees_it(system):
    def stuck_child(env):
        yield 10**9
        return ()

    def parent(env):
        vpe = yield from VPE.create(env, "stuck")
        yield from vpe.run(stuck_child)
        yield 1000
        yield from vpe.revoke()
        # The PE must be reusable afterwards.
        fresh = yield from VPE.create(env, "fresh")
        yield from fresh.run(quick_child)
        return (yield from fresh.wait())

    def quick_child(env):
        yield env.compute(5)
        return "alive"

    assert system.run_app(parent) == "alive"


def test_exec_loads_program_from_filesystem(fs_system):
    """exec reads the binary's bytes from m3fs, then starts the
    registered program of that name."""

    def fft_program(env, scale):
        yield env.compute(10)
        return ("ran", scale)

    fs_system.register_program("fft.bin", fft_program)

    def parent(env):
        f = yield from env.vfs.open("/bin-fft", OpenFlags.W | OpenFlags.CREATE)
        yield from f.write(b"\x7fELF" + b"\x00" * 2000)  # the "binary"
        yield from f.close()
        # Install under the canonical name, then exec it.
        yield from env.vfs.link("/bin-fft", "/fft.bin")
        vpe = yield from VPE.create(env, "fft")
        yield from vpe.exec("/fft.bin", 3)
        return (yield from vpe.wait())

    assert fs_system.run_app(parent) == ("ran", 3)


def test_exec_unregistered_program_fails(fs_system):
    def parent(env):
        f = yield from env.vfs.open("/mystery", OpenFlags.W | OpenFlags.CREATE)
        yield from f.write(b"???")
        yield from f.close()
        vpe = yield from VPE.create(env, "m")
        with pytest.raises(SyscallError, match="no program 'mystery'"):
            yield from vpe.exec("/mystery")
        # the kernel survived the refusal and still answers
        return (yield from env.syscall(syscalls.NOOP))

    assert fs_system.run_app(parent) == ()


def test_delegated_memory_is_usable_by_child(system):
    def child(env, mem_sel):
        gate = MemGate(env, mem_sel, 4096)
        data = yield from gate.read(0, 11)
        yield from gate.write(100, b"child reply")
        return data

    def parent(env):
        gate = yield from MemGate.create(env, 4096, MemoryPerm.RW.value)
        yield from gate.write(0, b"from parent")
        vpe = yield from VPE.create(env, "child")
        child_sel = yield from vpe.delegate_gate(gate)
        yield from vpe.run(child, child_sel)
        result = yield from vpe.wait()
        reply = yield from gate.read(100, 11)
        return result, reply

    result, reply = system.run_app(parent)
    assert result == b"from parent"
    assert reply == b"child reply"


def test_clone_cost_includes_image_transfer(system):
    """VPE.run transfers the clone image over the DTU (xfer cycles)."""

    def child(env):
        return ()
        yield  # pragma: no cover

    def parent(env):
        vpe = yield from VPE.create(env, "c")
        before = env.sim.ledger.total("xfer")
        yield from vpe.run(child)
        after = env.sim.ledger.total("xfer")
        yield from vpe.wait()
        return after - before

    from repro.m3.lib.vpe import CLONE_IMAGE_BYTES

    xfer = system.run_app(parent)
    assert xfer >= CLONE_IMAGE_BYTES / 8  # at least the serialisation time
