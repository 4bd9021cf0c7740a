"""Elastic scaling: queue-depth routing, the depth gossip rider, the
all-replicas-dead route regression, and the autoscaler's warm-boot
scale-up / drain-and-merge scale-down."""

import pytest

from repro.m3.autoscale import AutoScaler
from repro.m3.kernel.kernel import SyscallError
from repro.m3.kernel.vpe import VpeState
from repro.m3.services.kvserv import KvClient, start_kv_tier
from repro.m3.system import M3System


# -- regression: a route whose every replica domain is dead -------------------


def test_route_with_all_replica_domains_dead_fails_fast():
    """Every replica of a route lives in a failed domain: the router
    must raise a deterministic error instead of falling through — and
    it must not advance the cursor or count a session it never
    dispatched."""
    system = M3System(pe_count=4, kernel_count=2, reliable=True)
    k0, _k1 = system.kernels
    system.boot(with_fs=False)
    system.register_service_route(
        "kv", (("kv0", 1), ("kv1", 1)), policy="rr"
    )
    k0.dead_peers.add(1)
    cursor_before = dict(k0.router.cursors)
    counts_before = dict(k0.router.route_counts)
    with pytest.raises(SyscallError, match="no live replica for route 'kv'"):
        k0.router.resolve("kv")
    assert k0.router.cursors == cursor_before
    assert k0.router.route_counts == counts_before

    # End to end: a client opening a session sees the same error (not a
    # stale replica name handed to the remote-session probe).
    def client(env):
        try:
            yield from KvClient.connect(env, service="kv")
            return "connected (unexpected)"
        except SyscallError as exc:
            return str(exc)

    assert "no live replica" in system.run_app(client, name="client")


def test_no_live_replica_dumps_the_flight_recorder():
    """The no-live-replica verdict is a failure: with the recorder on,
    the kernel freezes the black box before err-replying the
    ``open_session``."""
    system = M3System(pe_count=4, kernel_count=2, reliable=True,
                      observe=True)
    k0, _k1 = system.kernels
    system.boot(with_fs=False)
    flight = system.enable_flight_recorder()
    system.register_service_route(
        "kv", (("kv0", 1), ("kv1", 1)), policy="rr"
    )
    k0.dead_peers.add(1)

    def client(env):
        try:
            yield from KvClient.connect(env, service="kv")
        except SyscallError as exc:
            return str(exc)

    assert "no live replica" in system.run_app(client, name="client")
    assert len(flight.dumps) == 1
    assert flight.dumps[0].splitlines()[0] == \
        "flight dump: kernel0: no live replica for route 'kv'"
    assert flight.dumps[0].splitlines()[1].endswith(", domain 0")


def test_depth_route_skips_dead_domains_too():
    system = M3System(pe_count=4, kernel_count=2, reliable=True)
    k0, _k1 = system.kernels
    system.boot(with_fs=False)
    system.register_service_route(
        "kv", (("kv0", 1), ("kv1", 1)), policy="depth"
    )
    k0.dead_peers.add(1)
    with pytest.raises(SyscallError, match="no live replica"):
        k0.router.resolve("kv")


# -- queue-depth routing ------------------------------------------------------


def test_depth_policy_prefers_least_loaded_replica():
    """``policy="depth"`` picks the smallest known queue depth among
    the live replicas; equal depths still rotate in cursor order."""
    system = M3System(pe_count=4, kernel_count=2, reliable=True)
    k0, _k1 = system.kernels
    system.boot(with_fs=False)
    system.register_service_route(
        "kv", (("kva", 1), ("kvb", 1)), policy="depth"
    )
    k0.router.replica_depths = {"kva": (10, 4), "kvb": (10, 1)}
    assert k0.router.resolve("kv") == "kvb"
    assert k0.router.resolve("kv") == "kvb"  # still the least loaded
    k0.router.replica_depths = {"kva": (20, 0), "kvb": (20, 3)}
    assert k0.router.resolve("kv") == "kva"
    # Equal depths: the cursor tiebreak rotates like round-robin.
    k0.router.replica_depths = {"kva": (30, 2), "kvb": (30, 2)}
    first = k0.router.resolve("kv")
    second = k0.router.resolve("kv")
    assert {first, second} == {"kva", "kvb"}
    assert k0.router.route_counts["kvb"] >= 1 and k0.router.route_counts["kva"] >= 1


def test_unknown_replica_depth_counts_as_idle():
    system = M3System(pe_count=4, kernel_count=2, reliable=True)
    k0, _k1 = system.kernels
    system.boot(with_fs=False)
    system.register_service_route(
        "kv", (("kva", 1), ("kvb", 1)), policy="depth"
    )
    # Only kva was ever heard about; kvb defaults to depth 0 and wins.
    k0.router.replica_depths = {"kva": (10, 7)}
    assert k0.router.resolve("kv") == "kvb"


# -- the depth gossip rider ---------------------------------------------------


def test_rr_routes_keep_the_gossip_rider_silent():
    """Without a depth route the piggyback stays ``None`` — the
    inter-kernel wire payload is byte-identical to the pre-elastic
    format, which is what keeps the committed rr results stable."""
    system = M3System(pe_count=4, kernel_count=2, reliable=True)
    k0, _k1 = system.kernels
    system.boot(with_fs=False)
    assert k0.router.rider(system.sim.now) is None
    system.register_service_route("kv", (("kv0", 1),), policy="rr")
    assert k0.router.rider(system.sim.now) is None


def test_gossip_rider_merges_newest_stamp_wins():
    system = M3System(pe_count=4, kernel_count=2, reliable=True)
    k0, k1 = system.kernels
    system.boot(with_fs=False)
    system.register_service_route("kv", (("kv0", 0),), policy="depth")
    k0.router.replica_depths = {"kv0": (100, 3), "kv1": (50, 9)}
    rider = k0.router.rider(system.sim.now)
    assert rider == (("kv0", 100, 3), ("kv1", 50, 9))
    k1.router.replica_depths = {"kv1": (80, 2)}
    k1.router.absorb(rider)
    # kv0 was news; kv1's relayed stamp 50 must not roll back the
    # fresher direct sample at stamp 80.
    assert k1.router.replica_depths == {"kv0": (100, 3), "kv1": (80, 2)}
    # Re-absorbing the same (now stale) rider changes nothing.
    k1.router.absorb(rider)
    assert k1.router.replica_depths == {"kv0": (100, 3), "kv1": (80, 2)}


# -- the autoscaler -----------------------------------------------------------


def _stock(env, keys):
    client = yield from KvClient.connect(env, service="kv")
    for index in range(keys):
        yield from client.put(f"key{index}", bytes([index]) * 16)
    yield from client.close()
    return "stocked"


def test_scale_up_warm_boots_clone_via_cross_domain_migration():
    """Scale-up clones the donor (store image and all), stages the
    clone next to it, live-migrates it into the empty domain, and only
    then lets it register its service — under the target kernel."""
    system = M3System(pe_count=8, kernel_count=2, reliable=True)
    k0, k1 = system.kernels
    system.boot(with_fs=False)
    servers = start_kv_tier(system, domains=[0], policy="depth")
    assert system.run_app(_stock, 4, name="stock") == "stocked"

    scaler = AutoScaler(system, servers, epoch=2_000, up_depth=1,
                        min_replicas=1)
    grown = system.sim.run_process(
        scaler._scale_up(scaler._depths()), "scale-up"
    )

    assert grown
    assert scaler.scale_ups == 1
    cycle, action, replica, domain, detail = scaler.events[-1]
    assert (action, replica, domain) == ("scale_up", "kv1", 1)
    assert detail == "warm from kv0"  # staged + migrated, not direct
    assert k1.migration.migrations_in == 1 and k0.migrations_out == 1
    clone = scaler.servers["kv1"]
    assert clone.store == servers[0].store  # warm: the donor's image
    assert clone.vpe.node in k1.domain
    assert "kv1" in k1.services  # registered with the *target* kernel
    # Every kernel routes over the grown tier now.
    for kernel in system.kernels:
        assert kernel.router.service_routes["kv"] == (("kv0", 0), ("kv1", 1))


def test_scale_down_drains_and_merges_store_into_survivor():
    system = M3System(pe_count=8, kernel_count=2, reliable=True)
    _k0, k1 = system.kernels
    system.boot(with_fs=False)
    servers = start_kv_tier(system, domains=[0, 1], policy="depth")
    kv0, kv1 = servers
    kv1.store["only-here"] = b"x" * 64
    kv1.bytes_stored = 64

    scaler = AutoScaler(system, servers, epoch=1_000, min_replicas=1)
    system.sim.run_process(scaler._scale_down(), "scale-down")

    assert scaler.scale_downs == 1
    assert kv0.store["only-here"] == b"x" * 64
    assert "kv1" in scaler.retired and "kv1" not in scaler.servers
    assert kv1.vpe.state == VpeState.DEAD
    assert k1.services.get("kv1") is None
    for kernel in system.kernels:
        assert kernel.router.service_routes["kv"] == (("kv0", 0),)
    assert scaler.events[-1][1] == "scale_down"
    assert "64B merged into kv0" in scaler.events[-1][4]


def test_scale_down_aborts_while_sessions_are_open():
    """A replica that still holds client sessions after the drain
    patience window must NOT be retired — the controller puts it back
    into the route and records the abort."""
    system = M3System(pe_count=8, kernel_count=2, reliable=True)
    system.boot(with_fs=False)
    servers = start_kv_tier(system, domains=[0, 1], policy="depth")
    _kv0, kv1 = servers

    def clinger(env):
        # Session against the concrete replica, never closed.
        client = yield from KvClient.connect(env, service="kv1")
        yield from client.put("held", b"y" * 8)
        return "holding"

    assert system.run_app(clinger, name="clinger") == "holding"
    assert kv1.sessions

    scaler = AutoScaler(system, servers, epoch=1_000, min_replicas=1)
    system.sim.run_process(scaler._scale_down(), "scale-down")

    assert scaler.scale_downs == 0
    assert "kv1" in scaler.servers and not scaler.retired
    assert kv1.vpe.state == VpeState.RUNNING
    cycle, action, replica, domain, detail = scaler.events[-1]
    assert action == "scale_down_aborted" and replica == "kv1"
    assert "1 sessions undrained" in detail
    for kernel in system.kernels:
        assert kernel.router.service_routes["kv"] == (("kv0", 0), ("kv1", 1))
