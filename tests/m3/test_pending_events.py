"""Stale-handle accounting: ``pending_events`` drains to exactly zero.

The kernel-level stale-handle paths (ik retry timers firing, DTU wipes
under reliable delivery) must leave ``pending_events`` exactly
balanced now that execution consumes handles.
"""

from repro.faults import FaultPlan
from repro.m3.lib.vpe import VPE
from repro.m3.system import M3System


def test_ik_retry_timers_leave_pending_events_exact():
    """Every ik retry fires the transport's ``_timer_fired`` *from its
    own timer*, which then cancels that just-executed handle — the exact stale
    cancel the engine fix makes a no-op.  Pre-fix, ``pending_events``
    went one negative per retry; it must drain to exactly zero."""
    system = M3System(pe_count=4, kernel_count=2, reliable=True)
    k0, _k1 = system.kernels
    FaultPlan(seed=3).delay(
        1.0, cycles=(3_000, 3_000), kinds=("reply",), destination=k0.node
    ).install(system.platform)
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
    assert k0.ik_retries >= 1  # the stale-cancel path actually ran
    system.sim.run()  # drain remaining retry timers
    assert system.sim.pending_events == 0


def test_dtu_wipe_leaves_pending_events_exact():
    """A kernel-driven DTU wipe clears ``_retx`` under live retransmit
    timers; the orphaned timers fire as no-ops and the books balance
    to zero."""
    from repro import params

    system = M3System(pe_count=4, reliable=True)
    system.boot(with_fs=False)

    def app(env):
        yield env.sim.delay(10)
        try:
            yield from env.syscall("noop")
        except Exception:
            pass
        return 0

    vpe = system.spawn(app, name="doomed")
    # Boot is clean; now drop every message leaving node 1 so the
    # syscall's transfer arms a retransmit timer that never gets acked.
    FaultPlan(seed=5).drop(
        1.0, source=1, kinds=("message",)
    ).install(system.platform)
    dtu = system.platform.pe(1).dtu
    # Let the transfer get in flight, then wipe the DTU while its
    # retransmit timer is pending.
    system.sim.run(until=system.sim.now + 2 * params.DTU_RETX_TIMEOUT_CYCLES)
    assert not dtu.idle  # a retransmit timer is live
    dtu._apply_config("wipe", ())
    assert dtu.idle
    system.sim.run()
    assert system.sim.pending_events == 0
