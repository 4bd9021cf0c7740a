"""Kernel watchdog: failure detection, recovery, and non-interference."""

import re

import pytest

from repro.faults import FaultPlan
from repro.m3.kernel.kernel import SyscallError
from repro.m3.kernel.vpe import VpeState
from repro.m3.lib.vpe import VPE
from repro.m3.system import M3System

KILL_AT = 6_000
PERIOD = 2_000
PROBE_TIMEOUT = 1_500


def _system(pe_count=4, kill_node=None, kill_at=KILL_AT):
    system = M3System(pe_count=pe_count, reliable=True)
    plan = FaultPlan(seed=42)
    if kill_node is not None:
        plan.kill_pe(node=kill_node, at=kill_at)
    plan.install(system.platform)
    system.boot(with_fs=False)
    return system


def _immortal_child(env):
    while True:
        yield env.compute(500)


def test_watchdog_detects_kill_and_fails_the_wait():
    # Node allocation is deterministic: kernel=0, parent=1, victim=2.
    system = _system(kill_node=2)
    system.kernel.failover.start_watchdog(period=PERIOD, probe_timeout=PROBE_TIMEOUT)

    def parent(env):
        vpe = yield from VPE.create(env, "victim")
        yield from vpe.run(_immortal_child)
        with pytest.raises(SyscallError, match="victim.*failed"):
            yield from vpe.wait()
        return env.sim.now

    unblocked_at = system.run_app(parent, name="parent")
    system.kernel.failover.stop_watchdog()
    assert unblocked_at > KILL_AT
    assert system.kernel.failover.recoveries == 1
    assert system.kernel.failover.probes_sent >= 1


def test_recovery_quarantines_pe_and_revokes_caps():
    system = _system(kill_node=2)
    system.kernel.failover.start_watchdog(period=PERIOD, probe_timeout=PROBE_TIMEOUT)

    def parent(env):
        vpe = yield from VPE.create(env, "victim")
        yield from vpe.run(_immortal_child)
        try:
            yield from vpe.wait()
        except SyscallError:
            pass
        # Allocation after recovery must avoid the quarantined node 2.
        replacement = yield from VPE.create(env, "replacement")

        def quick(env2):
            yield env2.compute(10)
            return env2.pe.node

        yield from replacement.run(quick)
        return (yield from replacement.wait())

    replacement_node = system.run_app(parent, name="parent")
    system.kernel.failover.stop_watchdog()
    assert system.platform.pe(2).failed
    assert replacement_node not in (0, 1, 2)
    victim = next(
        v for v in system.kernel.vpes.values() if v.name == "victim"
    )
    assert victim.state is VpeState.DEAD
    assert victim.failed
    # Every capability the victim held was revoked out of its table.
    assert all(cap.table is None for cap in victim.captable.caps())


def test_healthy_sibling_is_untouched_by_recovery():
    system = _system(pe_count=5, kill_node=2)
    system.kernel.failover.start_watchdog(period=PERIOD, probe_timeout=PROBE_TIMEOUT)

    def worker(env):
        yield env.compute(60_000)
        return "survived"

    def parent(env):
        doomed = yield from VPE.create(env, "doomed")     # gets node 2
        yield from doomed.run(_immortal_child)
        healthy = yield from VPE.create(env, "healthy")   # gets node 3
        yield from healthy.run(worker)
        with pytest.raises(SyscallError):
            yield from doomed.wait()
        return (yield from healthy.wait())

    assert system.run_app(parent, name="parent") == "survived"
    system.kernel.failover.stop_watchdog()
    assert system.kernel.failover.recoveries == 1
    assert not system.platform.pe(3).failed


def test_recovery_dumps_the_flight_recorder():
    """A watchdog kill is a failure verdict: with the flight recorder
    on, recovery freezes the black box for the victim's domain."""
    system = M3System(pe_count=4, reliable=True, observe=True)
    plan = FaultPlan(seed=42)
    plan.kill_pe(node=2, at=KILL_AT)
    plan.install(system.platform)
    system.boot(with_fs=False)
    flight = system.enable_flight_recorder()
    system.kernel.failover.start_watchdog(period=PERIOD, probe_timeout=PROBE_TIMEOUT)

    def parent(env):
        vpe = yield from VPE.create(env, "victim")
        yield from vpe.run(_immortal_child)
        try:
            yield from vpe.wait()
        except SyscallError:
            pass
        return "done"

    system.run_app(parent, name="parent")
    system.kernel.failover.stop_watchdog()
    assert len(flight.dumps) == 1
    text = flight.dumps[0]
    heading, cycle = text.splitlines()[:2]
    assert heading.startswith("flight dump: kernel0: watchdog recovers VPE")
    assert "victim" in heading
    assert cycle.endswith(", domain 0")
    # Domain 0's history holds the verdict itself.
    domain0 = re.search(r"^  domain 0:\n((?:    .*\n?)*)", text, re.M)
    assert " ! recover/" in domain0.group(1)


def test_watchdog_leaves_healthy_system_alone():
    system = _system()  # no faults at all
    system.kernel.failover.start_watchdog(period=PERIOD, probe_timeout=PROBE_TIMEOUT)

    def parent(env):
        vpe = yield from VPE.create(env, "worker")

        def worker(env2):
            yield env2.compute(3 * PERIOD)
            return 13

        yield from vpe.run(worker)
        return (yield from vpe.wait())

    assert system.run_app(parent, name="parent") == 13
    system.kernel.failover.stop_watchdog()
    assert system.kernel.failover.recoveries == 0
    assert system.kernel.failover.probes_sent >= 1  # it did probe, found life


def test_stop_watchdog_stops_probing():
    system = _system()
    system.kernel.failover.start_watchdog(period=PERIOD, probe_timeout=PROBE_TIMEOUT)

    def parent(env):
        vpe = yield from VPE.create(env, "worker")

        def worker(env2):
            yield env2.compute(2 * PERIOD)
            return ()

        yield from vpe.run(worker)
        yield from vpe.wait()
        return ()

    system.run_app(parent, name="parent")
    system.kernel.failover.stop_watchdog()
    after_stop = system.kernel.failover.probes_sent
    watchdog = system.kernel.failover._watchdog

    def idle(env):
        yield env.compute(5 * PERIOD)
        return ()

    system.run_app(idle, name="idle")
    assert system.kernel.failover.probes_sent == after_stop
    assert not watchdog.alive  # the loop actually exited


def test_double_start_rejected():
    system = _system()
    system.kernel.failover.start_watchdog(period=PERIOD, probe_timeout=PROBE_TIMEOUT)
    with pytest.raises(RuntimeError):
        system.kernel.failover.start_watchdog()
    system.kernel.failover.stop_watchdog()


def test_a_probe_lost_past_its_timeout_is_a_verdict_not_a_crash():
    """Every packet to the victim's node is dropped: the probe times
    out, the VPE is recovered, and the probe transfer the DTU gives up
    on later — when nobody waits on it any more — answers
    "unreachable" instead of failing out of the run."""
    system = M3System(pe_count=4, reliable=True)
    plan = FaultPlan(seed=42)
    plan.drop(1.0, destination=2, window=(KILL_AT, 10**9))
    plan.install(system.platform)
    system.boot(with_fs=False)
    system.kernel.failover.start_watchdog(period=PERIOD, probe_timeout=PROBE_TIMEOUT)

    def parent(env):
        vpe = yield from VPE.create(env, "victim")
        yield from vpe.run(_immortal_child)
        with pytest.raises(SyscallError, match="victim.*failed"):
            yield from vpe.wait()
        return "recovered"

    assert system.run_app(parent, name="parent") == "recovered"
    system.kernel.failover.stop_watchdog()
    system.sim.run()
    assert system.kernel.failover.recoveries == 1
    assert system.sim.pending_events == 0
