"""Cross-domain live migration: checkpoint over the idempotent
inter-kernel RPC (``ik_migrate_in``), the DTU redirect window spanning
domains, parked waits following the VPE, and the PE accounting of a
migration that fails midway."""

from repro import params
from repro.faults import FaultPlan
from repro.m3.kernel.kernel import SyscallError
from repro.m3.kernel.objects import RemoteVpeObject
from repro.m3.kernel.vpe import VpeState
from repro.m3.lib.vpe import VPE
from repro.m3.system import M3System


def _spin(env):
    while True:  # only a fault (or a revoke) stops this VPE
        yield env.compute(1_000)


def _worker(env, rounds, verdict):
    """Computes and keeps exercising the syscall channel; the rounds
    outlast a live migration, so the rewired channel gets used."""
    from repro.m3.kernel import syscalls

    for _ in range(rounds):
        yield env.compute(3_000)
        yield from env.syscall(syscalls.NOOP)
    return verdict


# -- the happy path -----------------------------------------------------------


def test_cross_domain_migration_round_trips_vpe_and_wait():
    """An app live-migrates its child into a peer kernel domain via the
    ``migrate_vpe`` syscall: the child keeps computing and syscalling
    across the move (now against the *target* kernel), the parent's
    capability swaps to a remote proxy, and the wait verdict crosses
    the domain boundary."""
    system = M3System(pe_count=6, kernel_count=2, reliable=True)
    k0, k1 = system.kernels
    system.boot(with_fs=False)

    def parent(env):
        vpe = yield from VPE.create(env, name="mover")
        yield from vpe.run(_worker, 40, 777)
        remote_id, node = yield from vpe.migrate(domain=1)
        verdict = yield from vpe.wait()
        return remote_id, node, verdict

    parent_vpe = system.spawn(parent, name="parent", domain=0)
    remote_id, node, verdict = system.wait(parent_vpe)
    system.sim.run()  # drain the redirect-window close

    assert verdict == 777
    assert node in k1.domain and node != k1.node
    assert k0.migrations_out == 1
    assert k1.migration.migrations_in == 1
    # The target kernel owns the VPE now (under its own minted id);
    # the source kernel only remembers the forwarding entry.
    moved = k1.vpes[remote_id]
    assert moved.name == "mover" and moved.state == VpeState.DEAD
    assert moved.exit_code == 777
    assert all(v.name != "mover" for v in k0.vpes.values())
    assert k0.migration.migrated_out  # old id -> (peer, new id)
    # The parent's capability now holds the child through a proxy that
    # tracked the forwarded verdict.
    proxies = [
        cap.obj for cap in parent_vpe.captable.caps()
        if cap.table is not None and isinstance(cap.obj, RemoteVpeObject)
    ]
    assert proxies and proxies[0].state == VpeState.DEAD
    assert proxies[0].exit_code == 777
    assert proxies[0].kernel_id == 1
    # Once the redirect window closed, the child's old PE (domain 0)
    # was wiped and released — no PE leaks from the crossing.
    assert all(
        not system.platform.pe(n).reserved
        for n in sorted(k0.domain) if n != k0.node
    )


# -- duplicate delivery -------------------------------------------------------


def test_duplicate_migrate_in_delivery_restores_exactly_once():
    """Every reply toward the source kernel is lost for longer than the
    inter-kernel RPC timeout once the migration starts, so
    ``ik_migrate_in`` is retransmitted at the kernel level — and the
    peer's dedup must absorb the duplicates: the VPE re-materializes
    exactly once and the verdict is still correct."""
    system = M3System(pe_count=6, kernel_count=2, reliable=True)
    k0, k1 = system.kernels
    system.boot(with_fs=False)

    def parent(env):
        vpe = yield from VPE.create(env, name="mover")
        yield from vpe.run(_worker, 40, 42)
        # The checkpoint and the restore take ~18,000 cycles: the loss
        # window reaches past the first ik_migrate_in reply.
        now = env.sim.now
        FaultPlan(seed=6).drop(
            1.0, kinds=("reply",), destination=k0.node,
            window=(now, now + 20_000)).install(system.platform)
        remote_id, _node = yield from vpe.migrate(domain=1)
        verdict = yield from vpe.wait()
        return remote_id, verdict

    remote_id, verdict = system.wait(
        system.spawn(parent, name="parent", domain=0)
    )
    system.sim.run()

    assert verdict == 42
    assert system.platform.network.packets_lost > 0  # replies to k0 were lost
    assert k0.ik_retries > 0  # the lost replies forced retransmits
    assert k1.ik.duplicates > 0  # ...which the dedup absorbed
    assert k1.migration.migrations_in == 1
    assert sum(1 for v in k1.vpes.values() if v.name == "mover") == 1
    assert k1.vpes[remote_id].exit_code == 42


# -- target domain dies inside the redirect window ----------------------------


def test_target_domain_dies_inside_redirect_window():
    """The whole target domain fails right after the migration — while
    the source DTU is still forwarding in-flight traffic across the
    boundary.  Heartbeats declare the domain dead, the forwarded wait
    is err-replied, and the source-side PE still gets released when
    the redirect window closes."""
    system = M3System(pe_count=6, kernel_count=2, reliable=True)
    k0, k1 = system.kernels
    system.boot(with_fs=False)
    system.start_heartbeats()
    checkpoints = {}

    def parent(env):
        vpe = yield from VPE.create(env, name="castaway")
        yield from vpe.run(_spin)
        try:
            yield from vpe.wait()
            return "wait returned (unexpected)"
        except SyscallError as exc:
            return f"wait err-replied: {exc}"

    def blackout():
        # Wait-parked first (the parent is already blocked in vpe_wait),
        # then migrate the child out from under it and kill the target
        # domain before the redirect window can close.
        yield system.sim.delay(6_000)
        child = next(v for v in k0.vpes.values() if v.name == "castaway")
        old_node = child.node
        assert child.exit_waiters  # the parent's wait is parked locally
        _new_id, new_node = yield from k0.migration.migrate_vpe_cross(child, 1)
        # Still inside the window: the old DTU forwards to the peer
        # domain this very cycle.
        assert system.platform.pe(old_node).dtu.redirect_to == new_node
        checkpoints["old_node"] = old_node
        for node in sorted(k1.domain):
            system.platform.pe(node).fail("domain-blackout")

    system.sim.process(blackout(), "blackout")
    parent_vpe = system.spawn(parent, name="parent", domain=0)
    outcome = system.wait(parent_vpe)
    system.stop_heartbeats()
    system.sim.run()

    assert "err-replied" in outcome and "kernel domain 1 failed" in outcome
    assert k0.dead_peers == {1}
    assert k0.migrations_out == 1
    # The forwarded wait resolved the proxy as failed.
    proxies = [
        cap.obj for cap in parent_vpe.captable.caps()
        if cap.table is not None and isinstance(cap.obj, RemoteVpeObject)
    ]
    assert proxies and proxies[0].state == VpeState.DEAD
    assert proxies[0].exit_code[0] == "failed"
    # The redirect window closed over a dead destination without
    # stranding the source PE.
    old_pe = system.platform.pe(checkpoints["old_node"])
    assert old_pe.dtu.redirect_to is None
    assert not old_pe.reserved and old_pe.occupant is None


# -- a parked cross-domain wait follows a second migration --------------------


def test_parked_cross_domain_wait_follows_migration():
    """Domain 0 waits on a child spilled into domain 1; the child then
    live-migrates to domain 2 *after* the wait was parked.  The parked
    inter-kernel wait is re-parked at the new owner and the verdict
    passes straight through the middle domain."""
    system = M3System(pe_count=9, kernel_count=3, reliable=True)
    k0, k1, k2 = system.kernels
    system.boot(with_fs=False)

    def hog(env):
        yield env.compute(400_000)

    def parent(env):
        vpe = yield from VPE.create(env, name="walker")
        yield from vpe.run(_worker, 40, 13)
        verdict = yield from vpe.wait()
        return verdict

    def mover():
        yield system.sim.delay(12_000)
        child = next(v for v in k1.vpes.values() if v.name == "walker")
        assert child.exit_waiters  # domain 0's wait is parked here
        yield from k1.migration.migrate_vpe_cross(child, 2)

    # Fill domain 0 so the child spills into domain 1.
    system.spawn(hog, name="hog", domain=0)
    system.sim.process(mover(), "mover")
    parent_vpe = system.spawn(parent, name="parent", domain=0)
    verdict = system.wait(parent_vpe)

    assert verdict == 13
    assert k1.migrations_out == 1
    assert k2.migration.migrations_in == 1
    moved = next(v for v in k2.vpes.values() if v.name == "walker")
    assert moved.state == VpeState.DEAD and moved.exit_code == 13
    assert not moved.exit_waiters
    # Domain 0's proxy never learned about the second hop — the wait
    # verdict passed through the middle domain's forwarding entry.
    proxies = [
        cap.obj for cap in parent_vpe.captable.caps()
        if cap.table is not None and isinstance(cap.obj, RemoteVpeObject)
    ]
    assert proxies and proxies[0].kernel_id == 1
    assert proxies[0].exit_code == 13
    assert k1.migration.migrated_out  # the pass-through forwarding entry


# -- every kind of exit wait follows a cross-domain migration -----------------


def test_yielding_wait_follows_cross_domain_migration():
    """A parent in ``wait_yield`` on a child that migrates into a peer
    domain gets the exit code, as a plain ``wait`` does."""
    system = M3System(pe_count=6, kernel_count=2, multiplexing=True,
                      reliable=True)
    k0, k1 = system.kernels
    system.boot(with_fs=False)

    def parent(env):
        vpe = yield from VPE.create(env, name="mover")
        yield from vpe.run(_worker, 40, 777)
        return (yield from vpe.wait_yield())

    def mover():
        yield system.sim.delay(6_000)
        # The parent's wait_yield is parked by now.
        child = next(v for v in k0.vpes.values() if v.name == "mover")
        yield from k0.migration.migrate_vpe_cross(child, 1)

    system.sim.process(mover(), "mover")
    assert system.wait(system.spawn(parent, name="parent", domain=0)) == 777
    assert k0.migrations_out == 1
    moved = next(v for v in k1.vpes.values() if v.name == "mover")
    assert moved.state == VpeState.DEAD and not moved.exit_waiters


def test_system_wait_follows_cross_domain_migration():
    """``system.wait`` on a root VPE that migrates into a peer domain
    returns the exit code it reaches there, not a false deadlock."""
    system = M3System(pe_count=6, kernel_count=2, reliable=True)
    k0, k1 = system.kernels
    system.boot(with_fs=False)
    root = system.spawn(_worker, 40, 777, name="root", domain=0)

    def mover():
        yield system.sim.delay(6_000)
        yield from k0.migration.migrate_vpe_cross(root, 1)

    system.sim.process(mover(), "mover")
    assert system.wait(root) == 777
    moved = next(v for v in k1.vpes.values() if v.name == "root")
    assert moved.state == VpeState.DEAD and moved.exit_code == 777


# -- regression: a failed migration must release the reserved target PE ------


def test_failed_migration_releases_reserved_target_pe():
    """The child dies (PE fault + watchdog kill) while the kernel is
    checkpointing it for an intra-domain migration.  The syscall fails
    — and the *target* PE the kernel had reserved must be released, or
    the domain leaks one PE per failed migration."""
    system = M3System(pe_count=4, kernel_count=1)
    # The checkpoint runs roughly cycles 5.5k-14.5k (64 KiB SPM over
    # the DTU); the kill lands inside it and the watchdog notices well
    # before the checkpoint transfer completes.
    FaultPlan(seed=5).kill_pe(node=2, at=8_000).install(system.platform)
    system.boot(with_fs=False)
    kernel = system.kernels[0]
    kernel.failover.start_watchdog(period=500)

    def parent(env):
        vpe = yield from VPE.create(env, name="doomed")
        yield from vpe.run(_spin)
        try:
            node = yield from vpe.migrate()
            return f"migrated to {node} (unexpected)"
        except SyscallError as exc:
            return str(exc)

    outcome = system.run_app(parent, name="parent")
    kernel.failover.stop_watchdog()
    system.sim.run()

    assert "died during checkpoint" in outcome
    platform = system.platform
    # Node 3 was the reserved migration target; node 2 died.  Exact
    # accounting: the allocator must hand out nodes 1 and 3 and then
    # be empty — a leaked reservation would surface as a missing PE.
    assert not platform.pe(3).reserved
    first = platform.find_free_pe()
    assert first is not None
    first.reserve()
    second = platform.find_free_pe()
    assert second is not None
    second.reserve()
    assert {first.node, second.node} == {1, 3}
    assert platform.find_free_pe() is None


def test_cross_migration_rejects_unknown_peer():
    system = M3System(pe_count=6, kernel_count=2, reliable=True)
    k0, _k1 = system.kernels
    system.boot(with_fs=False)

    def parent(env):
        vpe = yield from VPE.create(env, name="stay")
        yield from vpe.run(_worker, 4, 0)
        try:
            yield from vpe.migrate(domain=7)
            return "migrated (unexpected)"
        except SyscallError as exc:
            return str(exc)

    outcome = system.run_app(parent, name="parent")
    assert "no peer kernel domain 7" in outcome
    assert k0.migrations_out == 0
