"""Surviving kernel-domain failure: idempotent inter-kernel RPC with
retry/backoff, heartbeat-based failure detection with failover, and
VPE checkpoint/restore migration."""

import pytest

from repro import params
from repro.dtu.registers import MemoryPerm
from repro.faults import FaultPlan
from repro.m3.kernel import syscalls
from repro.m3.kernel.capability import CapKind
from repro.m3.kernel.kernel import SyscallError
from repro.m3.kernel.objects import RemoteVpeObject
from repro.m3.kernel.vpe import VpeState
from repro.m3.lib.gate import MemGate
from repro.m3.lib.vpe import VPE
from repro.m3.system import M3System


def _spin(env):
    while True:  # only a fault stops this VPE
        yield env.compute(1_000)


# -- idempotent inter-kernel RPC ---------------------------------------------


def test_delayed_replies_force_retries_but_execute_once():
    """Replies to kernel 0 outlast the RPC timeout, so every request is
    retransmitted at the kernel level — and the peer's dedup (inflight
    acks + reply cache) must absorb the duplicates: the spilled child
    is created exactly once and still returns the right answer."""
    system = M3System(pe_count=4, kernel_count=2, reliable=True)
    k0, k1 = system.kernels
    plan = FaultPlan(seed=3).delay(
        1.0, cycles=(3_000, 3_000), kinds=("reply",), destination=k0.node
    )
    plan.install(system.platform)
    system.boot(with_fs=False)

    def child(env, x):
        yield env.sim.delay(100)
        return x * 2

    def parent(env):
        vpe = yield from VPE.create(env, name="spilled")
        yield from vpe.run(child, 21)
        return (yield from vpe.wait())

    vpe = system.spawn(parent, name="parent", domain=0)
    assert system.wait(vpe) == 42
    assert k0.ik_retries >= 1  # every reply arrived after the timeout
    assert k1.ik.duplicates >= 1  # ... so the peer saw duplicate copies
    assert k0.ik.timeouts == 0  # but no RPC was given up on
    assert len(k1.vpes) == 1  # create_vpe executed once, not per copy
    system.sim.run()  # drain the remaining retry timers
    assert k0.ik.idle


def test_unanswered_rpc_times_out_with_capped_backoff():
    """A peer whose core died (but whose DTU still hardware-acks) never
    replies: the RPC is retried on an exact, capped exponential
    schedule and then completed with a timeout verdict."""
    system = M3System(pe_count=4, kernel_count=2, reliable=True)
    system.boot(with_fs=False)
    k0, k1 = system.kernels
    k1.pe.fail(cause="halted for the test")  # core dies, DTU answers

    verdicts = []
    k0.ik.request(
        1, "heartbeat", (0,),
        lambda payload: verdicts.append((system.sim.now, payload)),
    )
    system.sim.run()

    assert len(verdicts) == 1
    verdict_at, (status, detail) = verdicts[0]
    assert status == "timeout"
    assert f"no reply after {params.IK_RPC_MAX_ATTEMPTS} attempts" in detail
    assert k0.ik.timeouts == 1
    # Retry schedule: base * 2^n, exactly — bit-identical across runs.
    times = [now for now, _neg, _attempt in k0.ik.retry_log]
    assert len(times) == params.IK_RPC_MAX_ATTEMPTS - 1
    deltas = [later - earlier for earlier, later in zip(times, times[1:])]
    base = params.IK_RPC_TIMEOUT_CYCLES
    assert deltas == [base * 2, base * 4, base * 8]
    # The last interval (before the verdict) hits the deterministic cap
    # instead of doubling again.
    assert verdict_at - times[-1] == params.IK_RPC_TIMEOUT_CAP_CYCLES
    assert base * params.IK_RPC_BACKOFF ** 4 > params.IK_RPC_TIMEOUT_CAP_CYCLES


# -- heartbeats and failover --------------------------------------------------


def test_heartbeats_detect_dead_kernel_and_fail_over():
    """Kill kernel domain 1's kernel core mid-run: domain 0's heartbeat
    ring declares it dead after the miss limit, quarantines its PEs,
    and err-replies the cross-domain wait parked on it."""
    system = M3System(pe_count=4, kernel_count=2, reliable=True)
    k0, k1 = system.kernels
    kill_at = 10_000
    FaultPlan(seed=2).kill_pe(node=k1.node, at=kill_at).install(
        system.platform
    )
    system.boot(with_fs=False)
    system.start_heartbeats()

    def parent(env):
        vpe = yield from VPE.create(env, name="castaway")
        yield from vpe.run(_spin)
        try:
            yield from vpe.wait()
            return "wait returned (unexpected)"
        except SyscallError as exc:
            return f"wait err-replied: {exc}"

    vpe = system.spawn(parent, name="parent", domain=0)
    outcome = system.wait(vpe)
    system.stop_heartbeats()
    system.sim.run()

    assert "kernel domain 1 failed" in outcome
    assert k0.dead_peers == {1}
    assert len(k0.failover.failover_log) == 1
    peer, detected, completed, reason = k0.failover.failover_log[0]
    assert peer == 1
    assert detected > kill_at
    assert completed >= detected
    assert "heartbeat timeouts" in reason
    # The whole dead domain is quarantined, not just the kernel node.
    assert all(system.platform.pe(node).failed for node in sorted(k1.domain))
    # The proxy is dead, no parked wait or outstanding RPC remains.
    proxies = [
        cap.obj for cap in vpe.captable.caps()
        if cap.table is not None and isinstance(cap.obj, RemoteVpeObject)
    ]
    assert proxies and all(p.state == VpeState.DEAD for p in proxies)
    assert all(not v.remote_waiters for v in k0.vpes.values())
    assert k0.ik.idle


def test_failover_is_deterministic():
    def run_once():
        system = M3System(pe_count=4, kernel_count=2, reliable=True)
        k1 = system.kernels[1]
        plan = FaultPlan(seed=9).drop(0.01)
        plan.kill_pe(node=k1.node, at=10_000)
        plan.install(system.platform)
        system.boot(with_fs=False)
        system.start_heartbeats()

        def parent(env):
            vpe = yield from VPE.create(env, name="castaway")
            yield from vpe.run(_spin)
            try:
                yield from vpe.wait()
            except SyscallError as exc:
                return str(exc), env.sim.now

        vpe = system.spawn(parent, name="parent", domain=0)
        outcome = system.wait(vpe)
        system.stop_heartbeats()
        system.sim.run()
        k0 = system.kernels[0]
        return (outcome, k0.failover.failover_log, list(k0.ik.retry_log),
                k0.ik_retries, k0.ik.timeouts, system.sim.now)

    assert run_once() == run_once()


# -- remote-domain watchdog recovery (spilled VPEs) ---------------------------


def test_remote_watchdog_recovers_spilled_vpe_and_unparks_wait():
    """A VPE spilled into a peer domain dies (its PE's core is killed):
    the *owning* domain's watchdog detects it, the parked cross-domain
    VPE_WAIT is err-replied, the parent-side proxy goes DEAD, and the
    parent's foreign memory capabilities at the dead node are cut."""
    system = M3System(pe_count=4, kernel_count=2, reliable=True)
    k0, k1 = system.kernels
    child_node = 3  # domain 1 = {2, 3}, kernel on 2: the spill target
    FaultPlan(seed=4).kill_pe(node=child_node, at=10_000).install(
        system.platform
    )
    system.boot(with_fs=False)
    k1.failover.start_watchdog(period=2_000)

    def parent(env):
        gate = yield from MemGate.create(env, 4096, MemoryPerm.RW.value)
        vpe = yield from VPE.create(env, name="spilled")
        yield from vpe.delegate_gate(gate)
        yield from vpe.run(_spin)
        try:
            yield from vpe.wait()
            return "wait returned (unexpected)"
        except SyscallError as exc:
            return f"wait err-replied: {exc}"

    vpe = system.spawn(parent, name="parent", domain=0)
    outcome = system.wait(vpe)
    k1.failover.stop_watchdog()
    system.sim.run()  # drain the foreign-cap revocation sweep

    assert "err-replied" in outcome and "failed" in outcome
    assert k1.failover.recoveries == 1
    spilled = next(iter(k1.vpes.values()))
    assert spilled.node == child_node
    assert spilled.state == VpeState.DEAD
    assert spilled.exit_code[0] == "failed"
    assert not spilled.remote_waiters
    # Parent side: the remote proxy is DEAD and the SPM stub (a foreign
    # MEM capability pointing at the dead node) was revoked.
    proxies = [
        cap.obj for cap in vpe.captable.caps()
        if cap.table is not None and isinstance(cap.obj, RemoteVpeObject)
    ]
    assert proxies and all(p.state == VpeState.DEAD for p in proxies)
    assert not any(
        cap.foreign and cap.obj.node == child_node
        for cap in vpe.captable.caps()
        if cap.table is not None and cap.kind == CapKind.MEM
    )


# -- checkpoint/restore migration ---------------------------------------------


def _journaling_child(env, rounds):
    """Stamp one byte per round into SPM; verify the journal at exit."""
    base = env.alloc_buffer(256)
    for index in range(rounds):
        env.pe.spm_data.write(base + index, bytes([(index * 5 + 1) % 256]))
        yield env.compute(500)
        yield from env.syscall(syscalls.NOOP)
    stamped = bytes(env.pe.spm_data.read(base, rounds))
    expected = bytes((index * 5 + 1) % 256 for index in range(rounds))
    return ("ok" if stamped == expected else "corrupt", env.pe.node)


def test_live_migration_round_trips_spm_and_syscall_channel():
    """migrate_vpe moves a running VPE to a free PE: the SPM journal
    survives (checkpoint + final sync pass), the syscall channel keeps
    working from the new node, and the old PE is released after the
    redirect window closes."""
    system = M3System(pe_count=6).boot(with_fs=False)
    rounds = 20

    def _mover():
        return next(v for v in system.kernel.vpes.values()
                    if v.name == "mover")

    def parent(env):
        vpe = yield from VPE.create(env, "mover")
        yield from vpe.run(_journaling_child, rounds)
        yield env.compute(rounds * 500 // 2)  # let it get about halfway
        origin_node = _mover().node
        new_node = yield from vpe.migrate()
        verdict, final_node = yield from vpe.wait()
        return verdict, origin_node, new_node, final_node

    verdict, origin_node, new_node, final_node = system.run_app(
        parent, name="parent")
    system.sim.run()  # close the redirect window

    assert verdict == "ok"
    assert final_node == new_node
    kernel = system.kernel
    assert kernel.migrations == 1
    assert _mover().migrations == 1
    assert origin_node != new_node
    # The origin PE is healthy and free again, not leaked as reserved.
    origin = system.platform.pe(origin_node)
    assert not origin.failed and not origin.reserved
    assert origin.occupant is None


def test_migrating_a_remote_vpe_is_rejected():
    system = M3System(pe_count=4, kernel_count=2, reliable=True)
    system.boot(with_fs=False)

    def parent(env):
        vpe = yield from VPE.create(env, name="spilled")  # spills to dom 1
        yield from vpe.run(_spin)
        try:
            yield from vpe.migrate()
            return "migrated (unexpected)"
        except SyscallError as exc:
            return str(exc)

    vpe = system.spawn(parent, name="parent", domain=0)
    assert "cannot live-migrate a remote VPE" in system.wait(vpe)


def test_checkpoint_requires_a_resident_vpe():
    system = M3System(pe_count=4).boot(with_fs=False)

    def app(env):
        yield env.sim.delay(10)
        return ()

    vpe = system.spawn(app, name="app")
    system.wait(vpe)
    vpe.resident = False
    with pytest.raises(SyscallError, match="not resident"):
        list(system.kernel.migration.checkpoint_vpe(vpe))


# -- heartbeat plumbing -------------------------------------------------------


def test_heartbeat_requires_peers():
    system = M3System(pe_count=4).boot(with_fs=False)
    with pytest.raises(RuntimeError, match="no peers"):
        system.kernel.failover.start_heartbeat()


def test_start_heartbeats_only_touches_partitioned_kernels():
    # kernel_count=1: no peers anywhere, so this must be a no-op rather
    # than an error.
    system = M3System(pe_count=4).boot(with_fs=False)
    system.start_heartbeats()
    system.stop_heartbeats()
    assert system.kernel.heartbeats_sent == 0
