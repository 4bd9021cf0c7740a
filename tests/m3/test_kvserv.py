"""The kv service tier: store semantics, replication, session routing."""

import pytest

from repro.m3.kernel.kernel import SyscallError
from repro.m3.lib.vpe import VPE
from repro.m3.services.kvserv import KvClient, KvError, start_kv_tier
from repro.m3.system import M3System


@pytest.fixture
def kv_system():
    system = M3System(pe_count=6).boot(with_fs=False)
    servers = start_kv_tier(system)
    return system, servers


def test_put_get_roundtrip(kv_system):
    system, servers = kv_system

    def app(env):
        client = yield from KvClient.connect(env, "kv")
        stored = yield from client.put("user:7", b"alice")
        hit = yield from client.get("user:7")
        miss = yield from client.get("user:8")
        replaced = yield from client.put("user:7", b"bob")
        return stored, bytes(hit), miss, replaced

    assert system.run_app(app) == (5, b"alice", None, 3)
    server = servers[0]
    assert server.misses == 1  # the get of an absent key
    assert server.bytes_stored == 3  # the overwrite replaced alice


def test_a_client_parked_on_a_reply_survives_a_live_migration(kv_system):
    """Regression: the parent migrates its child while the child waits
    for a ``get`` reply.  The hand-off moved the reply ring to the new
    DTU, and the child woke on the old one to ask it for a ring it no
    longer had (``NoPermission: EP1 is not a receive endpoint``).
    libm3's receive loop now follows its VPE to the new DTU."""
    system, _servers = kv_system

    def child(env):
        client = yield from KvClient.connect(env, "kv")
        yield from client.put("k", b"v" * 64)
        total = 0
        for _ in range(200):
            total += len((yield from client.get("k")))
        return total, env.pe.node

    def parent(env):
        vpe = yield from VPE.create(env, name="child")
        yield from vpe.run(child)
        yield env.compute(20_265)  # the move lands inside a get
        new_node = yield from vpe.migrate()
        return (yield from vpe.wait()), new_node

    (total, ran_on), new_node = system.run_app(parent)
    assert total == 200 * 64 and ran_on == new_node


def test_oversized_value_and_empty_key_rejected(kv_system):
    system, _servers = kv_system

    def app(env):
        client = yield from KvClient.connect(env, "kv")
        errors = []
        for key, value in (("big", b"x" * 400), ("", b"v")):
            try:
                yield from client.put(key, value)
            except KvError as exc:
                errors.append(str(exc))
        return errors

    errors = system.run_app(app)
    assert "too large" in errors[0]
    assert "empty key" in errors[1]


def test_close_reclaims_the_session(kv_system):
    system, servers = kv_system

    def app(env):
        client = yield from KvClient.connect(env, "kv")
        yield from client.put("k", b"v")
        yield from client.close()
        try:
            yield from client.get("k")
            return "closed session still served"
        except KvError as exc:
            return str(exc)

    assert system.run_app(app) == "no such session"
    assert servers[0].sessions == {}


def test_tier_replicates_across_domains_round_robin():
    """Four sessions against the logical name spread 2/2 over the two
    replicas, and data written through one session is readable through
    another session landing on the same replica (shared store)."""
    system = M3System(pe_count=12, kernel_count=2).boot(with_fs=False)
    servers = start_kv_tier(system)
    assert [s.service_name for s in servers] == ["kv0", "kv1"]

    def app(env):
        clients = []
        for _ in range(4):
            clients.append((yield from KvClient.connect(env, "kv")))
        # 0 and 2 land on kv0, 1 and 3 on kv1 (round-robin from the
        # client's kernel, domain 0).
        yield from clients[0].put("shared", b"from-c0")
        via_same_replica = yield from clients[2].get("shared")
        via_other_replica = yield from clients[1].get("shared")
        for client in clients:
            yield from client.close()
        return bytes(via_same_replica), via_other_replica

    same, other = system.run_app(app)
    assert same == b"from-c0"
    assert other is None  # replicas are independent shards
    assert system.kernel.router.route_counts == {"kv0": 2, "kv1": 2}
    # every session was reclaimed, on both sides of the ik path
    assert servers[0].sessions == {} and servers[1].sessions == {}


def test_router_skips_dead_domains():
    system = M3System(pe_count=12, kernel_count=2).boot(with_fs=False)
    start_kv_tier(system)
    # Simulate a failed-over peer: domain 1 is marked dead.
    system.kernel.dead_peers.add(1)
    system.kernel.sessions.fail_peer(1)

    def app(env):
        replicas = []
        for _ in range(3):
            client = yield from KvClient.connect(env, "kv")
            yield from client.put("probe", b"x")
            yield from client.close()
        return replicas

    system.run_app(app)
    # All three sessions landed on the surviving replica.
    assert system.kernel.router.route_counts == {"kv0": 3}


def test_route_registration_validation():
    system = M3System(pe_count=6).boot(with_fs=False)
    with pytest.raises(ValueError, match="at least one replica"):
        system.kernel.router.register("kv", [])
    with pytest.raises(ValueError, match="cannot contain itself"):
        system.kernel.router.register("kv", [("kv", 0)])
    with pytest.raises(ValueError, match="unknown domain"):
        system.kernel.router.register("kv", [("kv0", 3)])


def test_unrouted_names_resolve_to_themselves():
    system = M3System(pe_count=6).boot(with_fs=False)
    start_kv_tier(system)

    def app(env):
        # The concrete replica name still works directly.
        client = yield from KvClient.connect(env, "kv0")
        yield from client.put("direct", b"1")
        yield from client.close()
        try:
            yield from env.syscall("open_session", "nope")
        except SyscallError as exc:
            return str(exc)

    assert "no service" in system.run_app(app)
