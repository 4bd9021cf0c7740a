"""PE time-multiplexing (context switching) — the Section 3.3/7 extension."""

import pytest

from repro.faults import FaultPlan
from repro.m3.kernel import syscalls
from repro.m3.kernel.kernel import SyscallError
from repro.m3.kernel.vpe import VpeState
from repro.m3.lib.vpe import VPE
from repro.m3.system import M3System


def _mux_system(pe_count=2, **kwargs):
    return M3System(pe_count=pe_count, multiplexing=True, **kwargs).boot(
        with_fs=False
    )


def test_without_multiplexing_creation_fails_when_pes_exhausted():
    system = M3System(pe_count=2).boot(with_fs=False)

    def parent(env):
        try:
            yield from VPE.create(env, "child")
        except SyscallError as exc:
            return str(exc)

    assert "no free PE" in system.run_app(parent)


def test_child_runs_on_parents_pe_via_context_switch():
    """One application PE, two VPEs: the parent yields, the child runs
    on the same PE, the parent is restored and gets the exit code."""
    system = _mux_system(pe_count=2)

    def child(env, value):
        yield env.compute(5_000)
        return ("child-ran-on", env.pe.node, value)

    def parent(env):
        own_node = env.pe.node
        vpe = yield from VPE.create(env, "child")
        yield from vpe.run(child, 42)
        result = yield from vpe.wait_yield()
        return own_node, result

    parent_node, result = system.run_app(parent, name="parent")
    assert result == ("child-ran-on", parent_node, 42)
    assert system.kernel.ctxsw.switch_count >= 2  # out + in (at least)


def test_multiple_children_share_one_pe():
    system = _mux_system(pe_count=2)

    def child(env, index):
        yield env.compute(1_000)
        return index

    def parent(env):
        results = []
        for index in range(3):
            vpe = yield from VPE.create(env, f"child{index}")
            yield from vpe.run(child, index)
            results.append((yield from vpe.wait_yield()))
        return results

    assert system.run_app(parent) == [0, 1, 2]


def test_switch_costs_time():
    """The direct context-switch cost (save + restore of the SPM image)
    must show up — Section 3.4's utilization-vs-performance trade."""

    def child(env):
        yield env.compute(1_000)
        return ()

    def parent(env):
        start = env.sim.now
        vpe = yield from VPE.create(env, "child")
        yield from vpe.run(child)
        yield from vpe.wait_yield()
        return env.sim.now - start

    # Dedicated PEs: no switch needed.
    dedicated = M3System(pe_count=3, multiplexing=True).boot(with_fs=False)
    fast = dedicated.run_app(parent, name="p1")
    assert dedicated.kernel.ctxsw.switch_count == 0

    # Shared PE: two switches, each moving the 64 KiB SPM image.
    shared = _mux_system(pe_count=2)
    slow = shared.run_app(parent, name="p2")
    image_cycles = 64 * 1024 // 8
    assert slow - fast > 2 * image_cycles


def test_spm_image_round_trips_through_staging():
    """Bytes the parent had in its SPM survive being switched out."""
    system = _mux_system(pe_count=2)
    marker = b"parent state that must survive the switch"

    def child(env):
        # scribble over the (shared) SPM to prove restoration matters
        env.pe.spm_data.write(0, b"\xde\xad" * 64)
        yield env.compute(100)
        return ()

    def parent(env):
        address = env.alloc_buffer(len(marker))
        env.pe.spm_data.write(address, marker)
        vpe = yield from VPE.create(env, "child")
        yield from vpe.run(child)
        yield from vpe.wait_yield()
        return env.pe.spm_data.read(address, len(marker))

    assert system.run_app(parent) == marker


def test_plain_wait_does_not_switch():
    """Only the yielding wait offers the PE; a busy parent keeps it."""
    system = _mux_system(pe_count=2)

    def child(env):
        yield env.compute(100)
        return "ran"

    def parent(env):
        vpe = yield from VPE.create(env, "child")
        yield from vpe.run(child)
        # The parent spins instead of yielding; the child only gets the
        # PE when the parent finally yields.
        yield env.compute(50_000)
        assert system.kernel.ctxsw.switch_count == 0
        result = yield from vpe.wait_yield()
        return result

    assert system.run_app(parent) == "ran"


def test_accelerators_are_not_multiplexed():
    """"some accelerators might be excluded" (Section 3.3)."""
    system = M3System(
        pe_count=1, accelerators={"fft-asic": 1}, multiplexing=True
    ).boot(with_fs=False)
    # PE1 is the ASIC; the only general-purpose app PE is... none free
    # after the parent occupies the only xtensa PE — and the ASIC must
    # not be chosen as a multiplexing victim for a general-purpose VPE.

    def parent(env):
        try:
            vpe = yield from VPE.create(env, "gp-child")
        except SyscallError as exc:
            return str(exc)
        # If created, it must be queued on a general-purpose PE.
        child = system.kernel.vpes[vpe.vpe_id]
        return child.pe.core.name

    result = system.run_app(parent)
    assert result == "xtensa" or "no free PE" in result


def test_exec_into_multiplexed_vpe():
    """exec writes the image into the staging area, not the busy SPM."""
    # Three PEs: kernel, m3fs, parent — the exec'd child must be
    # multiplexed onto the parent's PE.
    system = M3System(pe_count=3, multiplexing=True).boot(with_fs=True)

    def program(env, x):
        yield env.compute(10)
        return ("program", x)

    system.register_program("prog", program)

    from repro.m3.lib.file import OpenFlags

    def parent(env):
        f = yield from env.vfs.open("/prog", OpenFlags.W | OpenFlags.CREATE)
        yield from f.write(b"binary" * 100)
        yield from f.close()
        vpe = yield from VPE.create(env, "exec-child")
        yield from vpe.exec("/prog", 7)
        return (yield from vpe.wait_yield())

    assert system.run_app(parent) == ("program", 7)


def test_exec_unregistered_program_into_multiplexed_vpe_fails():
    """The loader refuses the entry before the VPE is queued: the exec
    fails as it does on a resident VPE, and the queue is left as it
    was, so the time-shared PE still runs the next exec."""
    system = M3System(pe_count=3, multiplexing=True).boot(with_fs=True)

    def program(env, x):
        yield env.compute(10)
        return ("program", x)

    system.register_program("prog", program)

    from repro.m3.lib.file import OpenFlags

    def parent(env):
        for path in ("/mystery", "/prog"):
            f = yield from env.vfs.open(path, OpenFlags.W | OpenFlags.CREATE)
            yield from f.write(b"binary" * 100)
            yield from f.close()
        vpe = yield from VPE.create(env, "m")
        child = system.kernel.vpes[vpe.vpe_id]
        assert child.node == env.pe.node and not child.resident
        with pytest.raises(SyscallError, match="no program 'mystery' registered"):
            yield from vpe.exec("/mystery")
        assert child.pending_entry is None
        assert child in system.kernel.ctxsw.queues[child.node]
        # the kernel still answers
        assert (yield from env.syscall(syscalls.NOOP)) == ()
        yield from vpe.exec("/prog", 7)
        return (yield from vpe.wait_yield())

    assert system.run_app(parent) == ("program", 7)


def test_yielder_gets_a_failed_childs_verdict_only_once_switched_back_in():
    """The watchdog kills the child a switched-out parent waits on: the
    error verdict, like an exit code, waits until the kernel has
    switched the parent back in ("the kernel needs to switch back to
    the old thread before the interrupted communication can be
    completed", Section 3.3), and the parent then exits normally."""
    system = M3System(pe_count=4, multiplexing=True, reliable=True)
    # Kernel on PE 0, hog on 1, parent on 2, child on 3.
    FaultPlan(seed=1).kill_pe(node=3, at=60_000).install(system.platform)
    system.boot(with_fs=False)
    kernel = system.kernel
    kernel.failover.start_watchdog()

    def hog(env):
        yield env.compute(400_000)

    def spin(env):
        while True:
            yield env.compute(1_000)

    def lodger(env):
        yield env.compute(150_000)
        return "lodged"

    def parent(env):
        child = yield from VPE.create(env, "child")
        yield from child.run(spin)
        lodger_vpe = yield from VPE.create(env, "lodger")
        yield from lodger_vpe.run(lodger)
        assert not kernel.vpes[lodger_vpe.vpe_id].resident  # queued here
        try:
            yield from child.wait_yield()
        except SyscallError as exc:
            return (str(exc), env.sim.now,
                    kernel.vpes[env.vpe_id].resident,
                    kernel.vpes[lodger_vpe.vpe_id].state)
        return "wait returned (unexpected)"

    def stop_watchdog():  # the run ends (or goes idle) after this
        yield system.sim.delay(300_000)
        kernel.failover.stop_watchdog()

    system.sim.process(stop_watchdog(), "stop-watchdog")
    system.spawn(hog, name="hog")
    parent_vpe = system.spawn(parent, name="parent")
    error, answered_at, resident, lodger_state = system.wait(parent_vpe)

    assert "'child' failed" in error and answered_at > 60_000
    assert kernel.failover.recoveries == 1
    # Answered only after the lodger finished and the parent came back.
    assert resident and lodger_state == VpeState.DEAD
    assert parent_vpe.state == VpeState.DEAD and parent_vpe.resident
