"""Layer microbenchmarks: one layer's public calls, timed from outside.

Each benchmark builds the smallest fixture its layer runs on (nothing
underneath unless stated), performs a fixed number of operations
inside one timed region and reports operations per host second — the
median of :data:`REPEATS` fresh fixtures.  Sizes aim at about a second
per repeat on the reference host.
"""

from __future__ import annotations

import statistics
import time

from repro.dtu.registers import EndpointRegisters, MemoryPerm
from repro.hw import Platform
from repro.m3.kernel import syscalls
from repro.m3.lib.file import OpenFlags
from repro.m3.services.kvserv import KvClient, start_kv_tier
from repro.m3.services.netserv import NetClient, start_network
from repro.m3.system import M3System
from repro.noc.network import Network
from repro.noc.packet import Packet
from repro.noc.topology import MeshTopology
from repro.obs import Observer
from repro.sim import Simulator

REPEATS = 5

NOC_PACKETS = 180_000
NOC_BATCH = 64  # packets injected between drains of the event queue
DTU_ROUND_TRIPS = 15_000
RDMA_TRANSFERS = 30_000
RDMA_BYTES = 4_096
SYSCALLS = 10_000
IK_SESSIONS = 1_400
FS_OPS = 1_100
FS_OP_BYTES = 4_096
KV_OPS = 14_000
#: one booted serving stack wedges past ~2048 datagrams per NIC (see
#: ``workloads.NIC_DATAGRAM_LIMIT``), so this one stays short.
DATAGRAMS = 1_500
OBS_SPANS = 300_000
OBS_COUNTS = 3_000_000


def _timed(body) -> float:
    """Host seconds ``body()`` takes."""
    start = time.perf_counter()
    body()
    return time.perf_counter() - start


# -- sim ----------------------------------------------------------------------


def sim_events() -> float:
    """The existing 8x4 mailbox ring on a bare engine; ring hops per
    second (a hop is a mailbox get, a 3-cycle delay and a put)."""
    from benchmarks.perf.harness import engine_workload

    start = time.perf_counter()
    _cycles, hops = engine_workload(Simulator())
    return hops / (time.perf_counter() - start)


# -- noc ----------------------------------------------------------------------


def _noc_send(flows) -> float:
    sim = Simulator()
    network = Network(sim, MeshTopology(4, 3))
    for node in range(12):
        network.attach(node, lambda packet: None)

    def body():
        for index in range(NOC_PACKETS):
            source, destination = flows[index % len(flows)]
            network.send(Packet(source, destination, "message", 64))
            if index % NOC_BATCH == NOC_BATCH - 1:
                sim.run()
        sim.run()

    return NOC_PACKETS / _timed(body)


def noc_send() -> float:
    """``Network.send`` on a bare 4x3 mesh, four flows on disjoint rows
    and columns."""
    return _noc_send([(0, 3), (4, 7), (8, 11), (3, 0)])


def noc_send_contended() -> float:
    """The same, every flow crossing the 1->2 link."""
    return _noc_send([(0, 3), (1, 2), (0, 2), (1, 3)])


# -- dtu ----------------------------------------------------------------------


def _two_dtus(reliable: bool):
    platform = Platform.build(pe_count=4, mesh_width=3, mesh_height=2)
    if reliable:
        for pe in platform.pes:
            pe.dtu.enable_reliability()
    client, server = platform.pe(0).dtu, platform.pe(1).dtu
    for sender, receiver, send_ep, recv_ep in ((client, server, 0, 1),
                                               (server, client, 5, 2)):
        receiver.configure_local(
            "configure", recv_ep,
            EndpointRegisters.receive_config(buffer_addr=0, slot_size=128,
                                             slot_count=4))
        sender.configure_local(
            "configure", send_ep,
            EndpointRegisters.send_config(target_node=receiver.node,
                                          target_ep=recv_ep, label=0xABCD,
                                          credits=4, msg_size=128))
    return platform, client, server


def _dtu_round_trips(reliable: bool) -> float:
    platform, client, server = _two_dtus(reliable)

    def client_sw():
        for index in range(DTU_ROUND_TRIPS):
            yield client.send(0, index, 8, reply_ep=2)
            slot, _reply = yield from client.wait_message(2)
            client.ack_message(2, slot)

    def server_sw():
        for _ in range(DTU_ROUND_TRIPS):
            slot, message = yield from server.wait_message(1)
            yield server.reply(1, slot, message.payload, 8)

    platform.pe(1).run(server_sw(), "server")
    done = platform.pe(0).run(client_sw(), "client").done
    elapsed = _timed(platform.sim.run)
    if not (done.triggered and done.ok):
        raise RuntimeError("dtu round trips did not finish")
    return DTU_ROUND_TRIPS / elapsed


def dtu_msg_rtt() -> float:
    """send -> reply between two configured DTUs."""
    return _dtu_round_trips(reliable=False)


def dtu_reliable_rtt() -> float:
    """The same with ``enable_reliability`` (acks, retransmit timers)."""
    return _dtu_round_trips(reliable=True)


def _rdma(write: bool) -> float:
    platform = Platform.build(pe_count=4, mesh_width=3, mesh_height=2)
    dtu = platform.pe(0).dtu
    dtu.configure_local(
        "configure", 0,
        EndpointRegisters.memory_config(platform.dram_node, 0x1000,
                                        RDMA_BYTES, MemoryPerm.RW))
    data = b"\x5a" * RDMA_BYTES

    def software():
        for _ in range(RDMA_TRANSFERS):
            if write:
                yield from dtu.write_memory(0, 0, data)
            else:
                yield from dtu.read_memory(0, 0, RDMA_BYTES)

    elapsed = _timed(lambda: platform.sim.run_process(software()))
    return RDMA_TRANSFERS * RDMA_BYTES / 1e6 / elapsed


def dtu_rdma_read() -> float:
    """``read_memory`` of 4 KiB from DRAM, MB per host second."""
    return _rdma(write=False)


def dtu_rdma_write() -> float:
    """``write_memory`` of 4 KiB to DRAM, MB per host second."""
    return _rdma(write=True)


# -- booted systems -----------------------------------------------------------


def _app_rate(system: M3System, app, operations: int, **spawn) -> float:
    """Run ``app`` to completion on a booted system; ops per second."""
    vpe = system.spawn(app, name="micro", **spawn)
    elapsed = _timed(lambda: system.wait(vpe))
    return operations / elapsed


def kernel_noop_syscall() -> float:
    """NOOP syscall round trips on a booted 4-PE system."""
    system = M3System(pe_count=4).boot(with_fs=False)

    def app(env):
        for _ in range(SYSCALLS):
            yield from env.syscall(syscalls.NOOP)

    return _app_rate(system, app, SYSCALLS)


def kernel_ikrpc() -> float:
    """k=2: open a session with a service in the other domain (one
    inter-kernel RPC through the ``srv_open`` path) and close it."""
    system = M3System(pe_count=12, kernel_count=2).boot(with_fs=False)
    start_kv_tier(system, domains=[0])

    def app(env):
        for _ in range(IK_SESSIONS):
            client = yield from KvClient.connect(env, "kv0")
            yield from client.close()

    return _app_rate(system, app, IK_SESSIONS, domain=1)


def m3fs_read_ops() -> float:
    """open + read 4 KiB + close of a preloaded file."""
    system = M3System(pe_count=4).boot()
    system.fs_preload({"/data.bin": b"\x5a" * FS_OP_BYTES})

    def app(env):
        for _ in range(FS_OPS):
            file = yield from env.vfs.open("/data.bin", OpenFlags.R)
            yield from file.read(FS_OP_BYTES)
            yield from file.close()

    return _app_rate(system, app, FS_OPS)


def m3fs_write_ops() -> float:
    """create + write 4 KiB + close + unlink."""
    system = M3System(pe_count=4).boot()
    data = b"\x5a" * FS_OP_BYTES

    def app(env):
        for _ in range(FS_OPS):
            file = yield from env.vfs.open("/new.bin",
                                           OpenFlags.W | OpenFlags.CREATE)
            yield from file.write(data)
            yield from file.close()
            yield from env.vfs.unlink("/new.bin")

    return _app_rate(system, app, FS_OPS)


def _kv_ops(put: bool) -> float:
    system = M3System(pe_count=6).boot(with_fs=False)
    start_kv_tier(system)
    value = b"\x5a" * 64

    def app(env):
        client = yield from KvClient.connect(env, "kv")
        yield from client.put("key", value)
        for _ in range(KV_OPS):
            if put:
                yield from client.put("key", value)
            else:
                yield from client.get("key")
        yield from client.close()

    return _app_rate(system, app, KV_OPS)


def kvserv_get() -> float:
    """``KvClient.get`` of a present 64-byte value, no NIC."""
    return _kv_ops(put=False)


def kvserv_put() -> float:
    """``KvClient.put`` of a 64-byte value, no NIC."""
    return _kv_ops(put=True)


def netserv_dgram() -> float:
    """``NetClient`` datagrams from one NIC to a receiver on the other."""
    system = M3System(pe_count=8).boot(with_fs=False)
    start_network(system)
    payload = b"\x5a" * 64

    def receiver(env):
        client = yield from NetClient.connect(env, "net2")
        yield from client.bind(9)
        for _ in range(DATAGRAMS):
            yield from client.recv_blocking()
        yield from client.close()

    def sender(env):
        client = yield from NetClient.connect(env, "net")
        yield from client.bind(7)
        for _ in range(DATAGRAMS):
            while True:
                try:
                    yield from client.send_to(9, payload)
                    break
                except RuntimeError as exc:
                    if "tx ring full" not in str(exc):
                        raise
                    yield 300
        yield from client.close()

    receiver_vpe = system.spawn(receiver, name="rx")
    system.sim.run(until=system.sim.now + 30_000)  # receiver bound
    sender_vpe = system.spawn(sender, name="tx")

    def body():
        system.wait(sender_vpe)
        system.wait(receiver_vpe)

    return DATAGRAMS / _timed(body)


# -- obs ----------------------------------------------------------------------


def _observer() -> Observer:
    observer = Observer.install(Simulator())
    observer.enable_telemetry(epoch=100_000)
    return observer


def obs_span() -> float:
    """``begin``/``end`` span pairs, telemetry on."""
    observer = _observer()

    def body():
        for index in range(OBS_SPANS):
            observer.end(observer.begin("op", "micro", 0), index=index)

    return OBS_SPANS / _timed(body)


def obs_count() -> float:
    """``count`` on one counter, telemetry on."""
    observer = _observer()

    def body():
        for _ in range(OBS_COUNTS):
            observer.count("micro.ops")

    return OBS_COUNTS / _timed(body)


#: metric name -> (benchmark, unit), in report order.
BENCHMARKS = {
    "sim.events_per_s": (sim_events, "1/s"),
    "noc.send_per_s": (noc_send, "1/s"),
    "noc.send_contended_per_s": (noc_send_contended, "1/s"),
    "dtu.msg_rtt_per_s": (dtu_msg_rtt, "1/s"),
    "dtu.reliable_rtt_per_s": (dtu_reliable_rtt, "1/s"),
    "dtu.rdma_read_mb_per_s": (dtu_rdma_read, "MB/s"),
    "dtu.rdma_write_mb_per_s": (dtu_rdma_write, "MB/s"),
    "m3.kernel.noop_syscall_per_s": (kernel_noop_syscall, "1/s"),
    "m3.kernel.ikrpc_per_s": (kernel_ikrpc, "1/s"),
    "m3fs.read_ops_per_s": (m3fs_read_ops, "1/s"),
    "m3fs.write_ops_per_s": (m3fs_write_ops, "1/s"),
    "kvserv.get_per_s": (kvserv_get, "1/s"),
    "kvserv.put_per_s": (kvserv_put, "1/s"),
    "netserv.dgram_per_s": (netserv_dgram, "1/s"),
    "obs.span_per_s": (obs_span, "1/s"),
    "obs.count_per_s": (obs_count, "1/s"),
}


def run_all(repeats: int = REPEATS) -> dict:
    """Every microbenchmark: ``{name: {"value": median, "unit": unit}}``."""
    return {
        name: {"value": statistics.median(benchmark() for _ in range(repeats)),
               "unit": unit}
        for name, (benchmark, unit) in BENCHMARKS.items()
    }
