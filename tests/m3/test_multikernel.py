"""Multi-kernel scale-out: partitioned PE mesh, per-domain kernels and
service registries, and the inter-kernel protocol that spans them."""

import pytest

from repro.dtu.registers import MemoryPerm
from repro.m3.kernel.vpe import VpeState
from repro.m3.lib.file import OpenFlags
from repro.m3.lib.gate import MemGate
from repro.m3.lib.m3fs_client import M3fsClient
from repro.m3.lib.vpe import VPE
from repro.m3.services.m3fs.superblock import SuperBlock
from repro.m3.system import M3System


def boot_partitioned(pe_count=12, kernel_count=2, **kwargs):
    return M3System(pe_count=pe_count, kernel_count=kernel_count,
                    **kwargs).boot(with_fs=False)


def start_domain_fs(system, kernel_count, total_blocks=4096):
    """One m3fs instance per domain, named m3fs / m3fs1 / m3fs2 ..."""
    for domain in range(kernel_count):
        name = "m3fs" if domain == 0 else f"m3fs{domain}"
        system.start_m3fs(
            name=name, domain=domain,
            superblock=SuperBlock(total_blocks=total_blocks // kernel_count),
        )


# -- partitioning -----------------------------------------------------------


def test_domains_partition_the_mesh():
    system = boot_partitioned(pe_count=12, kernel_count=4)
    domains = [kernel.domain for kernel in system.kernels]
    claimed = sorted(node for domain in domains for node in domain)
    assert claimed == [pe.node for pe in system.platform.pes]
    for index, domain in enumerate(domains):
        for other in domains[index + 1 :]:
            assert not (domain & other)
    # each kernel sits on a PE inside its own domain
    for kernel in system.kernels:
        assert kernel.node in kernel.domain


def test_each_kernel_allocates_only_in_its_domain():
    system = boot_partitioned(pe_count=12, kernel_count=2)

    def idle(env):
        yield env.sim.delay(10)
        return ()

    for domain, kernel in enumerate(system.kernels):
        vpe = system.spawn(idle, name=f"d{domain}", domain=domain)
        assert vpe.node in kernel.domain
        assert vpe.kernel is kernel
        system.wait(vpe)


def test_too_small_mesh_is_rejected():
    with pytest.raises(ValueError, match="cannot host"):
        M3System(pe_count=5, kernel_count=4)


def test_unknown_platform_keyword_is_rejected():
    # ``shards`` was an engine option once; it is gone, not ignored.
    with pytest.raises(TypeError, match="shards"):
        M3System(pe_count=4, **{"shards": 2})


def test_service_registries_are_per_domain():
    system = boot_partitioned(pe_count=12, kernel_count=2)
    start_domain_fs(system, 2)
    assert "m3fs" in system.kernels[0].services
    assert "m3fs" not in system.kernels[1].services
    assert "m3fs1" in system.kernels[1].services
    assert "m3fs1" not in system.kernels[0].services


# -- the inter-kernel protocol ----------------------------------------------


def test_remote_session_reads_a_file_across_domains():
    """An app in domain 1 opens a session with the m3fs instance in
    domain 0: remote service lookup, cross-domain session setup, and
    memory delegation back to the client's domain."""
    system = boot_partitioned(pe_count=12, kernel_count=2)
    start_domain_fs(system, 2)
    system.fs_preload({"/hello.txt": b"hello across domains"},
                      server=system.fs_servers["m3fs"])

    def app(env):
        client = yield from M3fsClient.connect(env, service="m3fs")
        env.vfs.mount("/", client)
        f = yield from env.vfs.open("/hello.txt", OpenFlags.R)
        data = yield from f.read(64)
        return bytes(data)

    vpe = system.spawn(app, name="reader", domain=1)
    assert system.wait(vpe) == b"hello across domains"
    k0, k1 = system.kernels
    assert k1.ik_requests_sent >= 1  # srv_open to domain 0
    assert k0.ik.requests_served >= 1
    assert k0.ik_requests_sent >= 1  # delegate_mem back to domain 1
    assert k1.ik.requests_served >= 1


def test_unknown_service_fails_across_all_domains():
    system = boot_partitioned(pe_count=12, kernel_count=2)

    def app(env):
        try:
            yield from M3fsClient.connect(env, service="no-such-service")
        except Exception as exc:
            return str(exc)
        return "connected?!"

    assert "no-such-service" in system.run_app(app)


def test_vpe_spills_into_a_peer_domain():
    """Domain 0 has no free PE left, so CREATE_VPE spills the child to
    domain 1; start and wait work through the remote-VPE proxy."""
    # domains: {0, 1} and {2, 3}; kernels on 0 and 2, parent takes 1.
    system = boot_partitioned(pe_count=4, kernel_count=2)

    def child(env, x):
        yield env.sim.delay(100)
        return x * 2

    def parent(env):
        vpe = yield from VPE.create(env, name="spilled")
        yield from vpe.run(child, 21)
        return (yield from vpe.wait())

    vpe = system.spawn(parent, name="parent", domain=0)
    assert system.wait(vpe) == 42
    assert len(system.kernels[1].vpes) == 1  # the spilled child
    assert system.kernels[0].ik_requests_sent >= 3  # create/start/wait


def test_memory_delegation_to_a_spilled_child():
    system = boot_partitioned(pe_count=4, kernel_count=2)

    def child(env, mem_sel):
        gate = MemGate(env, mem_sel, 4096)
        data = yield from gate.read(0, 11)
        yield from gate.write(100, b"child reply")
        return bytes(data)

    def parent(env):
        gate = yield from MemGate.create(env, 4096, MemoryPerm.RW.value)
        yield from gate.write(0, b"from parent")
        vpe = yield from VPE.create(env, name="spilled")
        child_sel = yield from vpe.delegate_gate(gate)
        yield from vpe.run(child, child_sel)
        result = yield from vpe.wait()
        reply = yield from gate.read(100, 11)
        return result, bytes(reply)

    vpe = system.spawn(parent, name="parent", domain=0)
    assert system.wait(vpe) == (b"from parent", b"child reply")


def test_cross_domain_wait_parks_until_exit():
    """The waiting side parks an inter-kernel slot; the exit
    notification arrives only when the child really exits."""
    system = boot_partitioned(pe_count=4, kernel_count=2)

    def child(env):
        yield env.sim.delay(50_000)
        return "late"

    def parent(env):
        vpe = yield from VPE.create(env, name="slow")
        yield from vpe.run(child)
        started = env.sim.now
        code = yield from vpe.wait()
        return code, env.sim.now - started

    vpe = system.spawn(parent, name="parent", domain=0)
    code, waited = system.wait(vpe)
    assert code == "late"
    assert waited >= 50_000


# -- determinism ------------------------------------------------------------


def _boot_and_run_fixed_workload():
    system = boot_partitioned(pe_count=12, kernel_count=2)
    start_domain_fs(system, 2)
    system.fs_preload({"/data.bin": bytes(range(256))},
                      server=system.fs_servers["m3fs"])

    def app(env, service):
        client = yield from M3fsClient.connect(env, service=service)
        env.vfs.mount("/", client)
        kind, size, _links, _extents = yield from env.vfs.stat("/")
        return kind, size, env.sim.now

    vpes = [
        system.spawn(app, "m3fs", name="a0", domain=0),
        system.spawn(app, "m3fs", name="a1", domain=1),  # cross-domain
        system.spawn(app, "m3fs1", name="b1", domain=1),
    ]
    results = [system.wait(vpe) for vpe in vpes]
    return results, system.sim.now


def test_multikernel_runs_are_deterministic():
    first = _boot_and_run_fixed_workload()
    second = _boot_and_run_fixed_workload()
    assert first == second


def test_single_kernel_layout_is_unchanged():
    """kernel_count=1 must leave the classic layout untouched: one
    kernel owning every PE, no peers, no inter-kernel endpoints."""
    system = M3System(pe_count=6).boot(with_fs=False)
    assert system.kernels == [system.kernel]
    assert system.kernel.peers == {}
    assert system.kernel.domain is None
    assert system.kernel.label == "kernel"
    # service endpoints still start right after the reply endpoint
    from repro.m3.kernel.kernel import KERNEL_FIRST_SRV_EP

    system.start_m3fs()
    assert system.kernel.services["m3fs"].kernel_ep == KERNEL_FIRST_SRV_EP


# -- the system.wait bugfix --------------------------------------------------


def test_wait_on_already_dead_vpe_raises_late_crashes():
    """Regression: a VPE that exits and *then* crashes left the crash
    swallowed when wait() was called after the fact."""
    system = M3System(pe_count=4).boot(with_fs=False)

    def app(env):
        yield from env.exit(0)
        raise RuntimeError("crashed after exit")

    vpe = system.spawn(app, name="zombie")
    system.sim.run()
    assert vpe.state == VpeState.DEAD
    with pytest.raises(RuntimeError, match="crashed after exit"):
        system.wait(vpe)
