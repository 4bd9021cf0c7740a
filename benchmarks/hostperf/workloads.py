"""The five benchmark workloads, built on the simulator's public API.

A workload is a function ``(seed, quick, profiler) -> [Segment]``: one
*pass* over its inputs.  A segment is one booted system — its host
set-up and timed-section clocks, the simulated cycles and per-op
latencies of the timed section, the work counters read from the
system afterwards, and whatever output check failed.  The seed reaches
only generated inputs (``TrafficProfile.seed``, ``FaultPlan(seed)``,
instance placement order and file contents on the fs side); everything
simulated is a pure function of it.
"""

from __future__ import annotations

import dataclasses
import gc
import random
import time

from repro import params
from repro.faults import FaultPlan
from repro.m3.lib.file import OpenFlags
from repro.m3.lib.m3fs_client import M3fsClient
from repro.m3.services.kvserv import KvServ
from repro.m3.services.m3fs.superblock import SuperBlock
from repro.m3.services.netserv import NetServ
from repro.m3.system import M3System
from repro.obs import SloMonitor, SloSpec
from repro.workloads import traffic
from repro.workloads.data import deterministic_bytes, tar_source_files
from repro.workloads.trace import M3Replayer
from repro.workloads.tracegen import TRACE_BENCHMARKS

DEFAULT_SEED = 20160402

#: ``netserv.start_network`` gives each NIC's IRQ send endpoint
#: ``credits=4096`` for life and a datagram costs two IRQs, so a booted
#: serving stack wedges silently (gateways polling forever) after ~2048
#: datagrams per NIC.  Every kv segment stays below this many requests;
#: length comes from booting several systems, not from one long one.
NIC_DATAGRAM_LIMIT = 1800

#: requests per load point when ``quick`` (also the warm-up size).
QUICK_REQUESTS = 200

# -- serve_kv / serve_kv_observed ---------------------------------------------

#: the two load points, on the default 12-PE / 2-domain / 2-gateway
#: shape: the linear region (latency metrics come from this one) and
#: past saturation.
SERVE_POINTS = (("gap3000", 3_000), ("gap600", 600))
SERVE_REQUESTS = 600
SERVE_CLIENTS = 480
SERVE_GET_FRACTION = 0.70

#: what ``serve_kv_observed`` switches on (the telemetry eval's set-up).
OBSERVED_EPOCH = 100_000
OBSERVED_SLOS = (
    (SloSpec("gw-latency", target=0.99, series="traffic.latency_cycles",
             threshold=6_000),
     (("page", 2, 6, 6.0), ("ticket", 4, 8, 1.5))),
    (SloSpec("noc-delivery", target=0.999,
             bad_series="noc.packets_dropped",
             total_series="noc.packets_injected"),
     (("page", 1, 4, 6.0), ("ticket", 2, 8, 2.0))),
)

# -- elastic_kv_lossy ---------------------------------------------------------

#: the autoscale eval's size.  The tier stays behind this bursty load
#: for as long as it lasts, so a longer run overflows the gateways'
#: socket inboxes and drops frames (seen from ~1400 requests on some
#: seeds); length comes from three systems on sub-seeds instead.
ELASTIC_REQUESTS = 600
ELASTIC_SYSTEMS = 3
ELASTIC_PROFILE = dict(clients=480, arrival="bursty", mean_gap=1_000,
                       burst=12, session_refresh=4)
#: the autoscale eval's 4-domain shape: the tier boots in domains 1 and
#: 2, leaving 0 and 3 as the headroom warm clones migrate into.
ELASTIC_SYSTEM = dict(pe_count=24, kernel_count=4, gateways=6, ep_count=12,
                      kv_domains=[1, 2], kv_op_cycles=2_000, policy="depth",
                      heartbeats=True)
ELASTIC_AUTOSCALE = dict(epoch=10_000, up_depth=3, down_total=-1,
                         cooldown_epochs=2)
ELASTIC_DROP_RATE = 0.01
ELASTIC_DROP_WINDOW = (150_000, 900_000)

# -- fs_read / fs_write -------------------------------------------------------

FS_ROUNDS = 8
#: kernel + m3fs + 48 concurrent trace instances (the issue's "40 PEs"
#: cannot host 16+16+16 instances; idle PEs cost nothing).
FS_PES = 52
FS_DRAM_BYTES = 192 * 1024 * 1024
FS_VOLUME_BLOCKS = 128 * 1024
FS_INSTANCES = 16
QUICK_FS_INSTANCES = 4
FS_EXTENT_BLOCKS = (16, 256)
FILE_BYTES = params.MICRO_FILE_BYTES
BUFFER_BYTES = params.MICRO_BUFFER_BYTES
CHURN_FILES = 32
CHURN_BYTES = 8 * 1024


@dataclasses.dataclass
class Segment:
    """One booted system's share of a pass."""

    kind: str
    setup_s: float
    wall_s: float
    cpu_s: float
    #: simulated cycles the timed section advanced.
    sim_cycles: int
    #: simulated latency of each op, for the segments latency is
    #: reported from (empty elsewhere).
    op_cycles: list
    attempted: int
    failed: int
    #: deterministic work counts, read from public counters.
    counters: dict
    #: failed output checks, in words.
    problems: list


class Clock:
    """Host clocks for one segment: set-up runs from :meth:`start` to
    :meth:`timed`, the timed section from there to :meth:`stop`.  A
    profiler, when given, is enabled for the timed section only."""

    def __init__(self, profiler=None):
        self.profiler = profiler
        self._start = self._timed = self._timed_cpu = None
        self.setup_s = self.wall_s = self.cpu_s = 0.0

    def start(self) -> None:
        self._start = time.perf_counter()

    def timed(self) -> None:
        self._timed = time.perf_counter()
        self.setup_s = self._timed - self._start
        self._timed_cpu = time.process_time()
        if self.profiler is not None:
            self.profiler.enable()

    def stop(self) -> None:
        if self.profiler is not None:
            self.profiler.disable()
        self.wall_s = time.perf_counter() - self._timed
        self.cpu_s = time.process_time() - self._timed_cpu


def system_counters(system: M3System, netservs=(), kvservs=()) -> dict:
    """Per-layer work counts of a drained system (public counters).

    Every workload reports every name; the two a system cannot answer
    for itself are zero here and filled in by :func:`kv_segment`."""
    network = system.platform.network
    links = [link for _key, link in network.iter_links()]
    dtus = [pe.dtu for pe in system.platform.pes]
    dtus += [server.nic.dtu for server in netservs]
    kernels = system.kernels
    obs = system.sim.obs
    return {
        "noc.packets_sent": network.packets_sent,
        "noc.bytes_sent": network.bytes_sent,
        "noc.link_reserve_calls": sum(link.packets for link in links),
        "noc.link_busy_cycles": sum(link.busy_cycles for link in links),
        "noc.packets_lost": network.packets_lost,
        "dtu.messages_sent": sum(dtu.messages_sent for dtu in dtus),
        "dtu.acks_sent": sum(dtu.acks_sent for dtu in dtus),
        "dtu.retransmits": sum(dtu.retransmits for dtu in dtus),
        "dtu.messages_dropped": sum(dtu.messages_dropped for dtu in dtus),
        "m3.kernel.syscalls": sum(k.syscall_count for k in kernels),
        "m3.kernel.ik_requests_sent": sum(k.ik_requests_sent for k in kernels),
        "m3.kernel.ik_retries": sum(k.ik_retries for k in kernels),
        "m3.kernel.migrations": sum(k.migrations + k.migrations_out
                                    for k in kernels),
        "m3.kernel.heartbeats_sent": sum(k.heartbeats_sent for k in kernels),
        "m3fs.requests_served": sum(server.requests_served for server
                                    in system.fs_servers.values()),
        "kvserv.requests_served": sum(s.requests_served for s in kvservs),
        "kvserv.misses": sum(s.misses for s in kvservs),
        "netserv.frames_routed": sum(s.frames_routed for s in netservs),
        "netserv.frames_dropped": sum(s.frames_dropped for s in netservs),
        "netserv.tx_retries": 0,
        "obs.spans": len(obs.spans) if obs is not None else 0,
        "obs.spans_dropped": obs.spans_dropped if obs is not None else 0,
        "workloads.loadgen_late_cycles": 0,
    }


# -- kv segments --------------------------------------------------------------


class _SentLog(dict):
    """Stand-in for ``TrafficRun.sent`` that also notes how late the
    open loop ran: the load generator stores a request's scheduled
    arrival here at the cycle it gets to send it."""

    def __init__(self, sim):
        super().__init__()
        self.sim = sim
        self.max_late = 0

    def __setitem__(self, req_id, scheduled_at):
        late = self.sim.now - scheduled_at
        if late > self.max_late:
            self.max_late = late
        super().__setitem__(req_id, scheduled_at)


class _SpawnProbe:
    """The benchmark's view into ``run_profile`` through the one seam
    it offers: ``instrument=`` hands over the booted system before any
    service starts, and everything after goes through ``system.spawn``.
    Set-up ends — and the timed section starts — when the load
    generator is spawned; service instances are noted as they start so
    their counters can be read afterwards."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.services: list = []
        self.sent: _SentLog | None = None
        self.sim_start = 0

    def attach(self, system: M3System) -> None:
        spawn = system.spawn

        def probed_spawn(entry, *args, **kwargs):
            owner = getattr(entry, "__self__", None)
            if owner is not None:
                self.services.append(owner)
            if kwargs.get("name") == "loadgen":
                run = args[0]
                run.sent = self.sent = _SentLog(system.sim)
                self.sim_start = system.sim.now
                self.clock.timed()
            return spawn(entry, *args, **kwargs)

        system.spawn = probed_spawn


def _attach_observers(system: M3System) -> None:
    system.enable_telemetry(epoch=OBSERVED_EPOCH)
    for spec, windows in OBSERVED_SLOS:
        SloMonitor(system.sim.obs, spec, windows=windows)


def kv_segment(kind: str, profile: traffic.TrafficProfile, profiler=None,
               observed: bool = False, latency: bool = True,
               **run_kwargs) -> Segment:
    """Boot a serving stack, drive one load point, check it, count it."""
    if profile.requests > NIC_DATAGRAM_LIMIT:
        raise ValueError(
            f"{profile.requests} requests on one booted system: the NIC IRQ "
            "send endpoint gets credits=4096 for life (two IRQs per "
            "datagram), so the serving stack livelocks past ~2048 datagrams "
            f"per NIC; stay at or below {NIC_DATAGRAM_LIMIT} and boot "
            "another system for more"
        )
    clock = Clock(profiler)
    probe = _SpawnProbe(clock)

    def instrument(system):
        if observed:
            _attach_observers(system)
        probe.attach(system)

    clock.start()
    result = traffic.run_profile(profile, observe=observed,
                                 instrument=instrument, **run_kwargs)
    clock.stop()
    if probe.sent is None:
        raise RuntimeError(
            "run_profile never spawned a VPE named 'loadgen'; the "
            "benchmark's set-up/timed split depends on it"
        )
    system = result.system
    kvservs = {id(s): s for s in probe.services if isinstance(s, KvServ)}
    if result.scaler is not None:
        for server in (*result.scaler.servers.values(),
                       *result.scaler.retired.values()):
            kvservs[id(server)] = server
    netservs = [s for s in probe.services if isinstance(s, NetServ)]
    counters = system_counters(system, netservs, kvservs.values())
    counters["netserv.tx_retries"] = result.tx_retries + result.gw_tx_retries
    counters["workloads.loadgen_late_cycles"] = probe.sent.max_late
    counters["scaler_events"] = (len(result.scaler.events)
                                 if result.scaler is not None else 0)
    for replica, served in sorted(result.replica_requests.items()):
        counters[f"served.{replica}"] = served

    problems = []
    if result.completed != result.sent:
        problems.append(f"{kind}: {result.sent - result.completed} of "
                        f"{result.sent} requests never completed")
    if result.kv_errors:
        problems.append(f"{kind}: {result.kv_errors} kv errors")
    if system.sim.pending_events:
        problems.append(f"{kind}: {system.sim.pending_events} events still "
                        "pending after the drain")
    failed = min(result.sent, (result.sent - result.completed)
                 + result.kv_errors + result.frames_dropped)
    return Segment(
        kind=kind, setup_s=clock.setup_s,
        wall_s=clock.wall_s, cpu_s=clock.cpu_s,
        sim_cycles=system.sim.now - probe.sim_start,
        op_cycles=list(result.latencies.values()) if latency else [],
        attempted=result.sent, failed=failed, counters=counters,
        problems=problems,
    )


def _serve_pass(seed: int, quick: bool, profiler, observed: bool) -> list:
    requests = QUICK_REQUESTS if quick else SERVE_REQUESTS
    segments = []
    for kind, gap in SERVE_POINTS:
        profile = traffic.TrafficProfile(
            name=kind, seed=seed, clients=SERVE_CLIENTS, requests=requests,
            mean_gap=gap, get_fraction=SERVE_GET_FRACTION,
        )
        segments.append(kv_segment(kind, profile, profiler, observed=observed,
                                   latency=(kind == "gap3000")))
        gc.collect()
    return segments


def serve_kv(seed: int, quick: bool = False, profiler=None) -> list:
    return _serve_pass(seed, quick, profiler, observed=False)


def serve_kv_observed(seed: int, quick: bool = False, profiler=None) -> list:
    return _serve_pass(seed, quick, profiler, observed=True)


def elastic_kv_lossy(seed: int, quick: bool = False, profiler=None) -> list:
    systems, requests = ((1, QUICK_REQUESTS) if quick
                         else (ELASTIC_SYSTEMS, ELASTIC_REQUESTS))
    segments = []
    for index in range(systems):
        sub_seed = seed * ELASTIC_SYSTEMS + index
        profile = traffic.TrafficProfile(name="elastic", seed=sub_seed,
                                         requests=requests, **ELASTIC_PROFILE)
        plan = FaultPlan(sub_seed).drop(ELASTIC_DROP_RATE,
                                        window=ELASTIC_DROP_WINDOW)
        segments.append(kv_segment(
            f"elastic{index}", profile, profiler, fault_plan=plan,
            autoscale=dict(ELASTIC_AUTOSCALE), **ELASTIC_SYSTEM))
        gc.collect()
    return segments


# -- fs segments --------------------------------------------------------------


def _boot_fs_system() -> M3System:
    return M3System(pe_count=FS_PES, dram_bytes=FS_DRAM_BYTES).boot(
        fs_kwargs={"superblock": SuperBlock(total_blocks=FS_VOLUME_BLOCKS)}
    )


def _replay_app(trace, go):
    """Closed loop: each instance issues its next trace op when the
    last returns.  A raised op is returned, not propagated, so it is
    counted as a failed op instead of ending the run."""

    def app(env):
        yield from env.vfs.stat("/")  # session set-up before the barrier
        yield go
        start = env.sim.now
        try:
            yield from M3Replayer(env).replay(trace)
        except Exception as exc:  # noqa: BLE001 - counted, reported below
            return exc
        return env.sim.now - start

    return app


def _spawn_instances(system: M3System, names, count: int, order, go) -> list:
    """Preload and spawn ``count`` instances of each named trace, in the
    seeded ``order``; returns the VPEs, parked at the barrier."""
    instances = [(name, index) for name in names for index in range(count)]
    order.shuffle(instances)
    vpes = []
    for name, index in instances:
        prefix = f"/{name}{index}"
        setup_files, trace = TRACE_BENCHMARKS[name](prefix)
        if setup_files:
            system.fs_preload(setup_files)
        else:
            system.fs_server.fs.mkdir(prefix)
        vpes.append(system.spawn(_replay_app(trace, go),
                                 name=f"{name}-{index}"))
    system.sim.run()  # everyone reaches the barrier
    return vpes


def _collect(system: M3System, vpes, op_cycles: list, problems: list) -> int:
    """Wait for the instances; returns how many failed."""
    failed = 0
    for vpe in vpes:
        outcome = system.wait(vpe)
        if isinstance(outcome, int):
            op_cycles.append(outcome)
        else:
            failed += 1
            problems.append(f"{vpe.name} did not return: {outcome!r}")
    return failed


def _fs_segment(system: M3System, clock: Clock, sim_start: int,
                op_cycles: list, attempted: int, failed: int,
                problems: list) -> Segment:
    system.sim.run()
    clock.stop()
    if system.sim.pending_events:
        problems.append(f"{system.sim.pending_events} events still pending "
                        "after the drain")
    return Segment(
        kind="round", setup_s=clock.setup_s,
        wall_s=clock.wall_s, cpu_s=clock.cpu_s,
        sim_cycles=system.sim.now - sim_start,
        op_cycles=op_cycles, attempted=attempted, failed=failed,
        counters=system_counters(system), problems=problems,
    )


def _read_round(seed: int, instances: int, profiler) -> Segment:
    clock = Clock(profiler)
    clock.start()
    system = _boot_fs_system()
    contents = {
        blocks: deterministic_bytes(f"frag{seed}-{blocks}", FILE_BYTES)
        for blocks in FS_EXTENT_BLOCKS
    }
    for blocks, content in contents.items():
        system.fs_preload({f"/frag{blocks}.dat": content},
                          extent_blocks=blocks)
    go = system.sim.event("go")
    vpes = _spawn_instances(system, ("tar", "find", "sqlite"), instances,
                            random.Random(seed), go)

    def reader(env, path):
        probe = yield from env.vfs.open(path, OpenFlags.R)
        yield from probe.read(BUFFER_BYTES)  # session + first-open costs
        yield from probe.close()
        start = env.sim.now
        file = yield from env.vfs.open(path, OpenFlags.R)
        data = bytearray()
        while True:
            chunk = yield from file.read(BUFFER_BYTES)
            if not chunk:
                break
            data += chunk
        yield from file.close()
        return env.sim.now - start, bytes(data)

    clock.timed()
    sim_start = system.sim.now
    go.succeed()
    op_cycles, problems = [], []
    failed = _collect(system, vpes, op_cycles, problems)
    for blocks, content in contents.items():
        cycles, data = system.run_app(reader, f"/frag{blocks}.dat",
                                      name=f"read{blocks}")
        op_cycles.append(cycles)
        if data != content:
            failed += 1
            problems.append(f"/frag{blocks}.dat read back wrong")
    return _fs_segment(system, clock, sim_start, op_cycles,
                       len(vpes) + len(contents), failed, problems)


def _write_round(seed: int, instances: int, profiler) -> Segment:
    clock = Clock(profiler)
    clock.start()
    system = _boot_fs_system()
    for blocks in FS_EXTENT_BLOCKS:
        system.start_m3fs(name=f"fs{blocks}", append_blocks=blocks)
    go = system.sim.event("go")
    order = random.Random(seed)
    vpes = _spawn_instances(system, ("untar",), instances, order, go)
    checked = order.randrange(instances)
    payload = deterministic_bytes(f"append{seed}", BUFFER_BYTES)
    churn = deterministic_bytes(f"churn{seed}", CHURN_BYTES)

    def appender(env, service):
        client = yield from M3fsClient.connect(env, service=service)
        env.vfs.mount("/", client)
        yield from env.vfs.stat("/")
        start = env.sim.now
        file = yield from env.vfs.open("/new.dat",
                                       OpenFlags.W | OpenFlags.CREATE)
        for _ in range(FILE_BYTES // BUFFER_BYTES):
            yield from file.write(payload)
        yield from file.close()
        return env.sim.now - start

    def churner(env):
        yield from env.vfs.stat("/")
        cycles = []
        for index in range(CHURN_FILES):
            start = env.sim.now
            path = f"/churn{index}.tmp"
            file = yield from env.vfs.open(path,
                                           OpenFlags.W | OpenFlags.CREATE)
            yield from file.write(churn)
            yield from file.close()
            yield from env.vfs.unlink(path)
            cycles.append(env.sim.now - start)
        return cycles

    clock.timed()
    sim_start = system.sim.now
    go.succeed()
    op_cycles, problems = [], []
    failed = _collect(system, vpes, op_cycles, problems)
    for blocks in FS_EXTENT_BLOCKS:
        service = f"fs{blocks}"
        op_cycles.append(system.run_app(appender, service,
                                        name=f"append{blocks}"))
        written = system.fs_read_back("/new.dat",
                                      server=system.fs_servers[service])
        if written != payload * (FILE_BYTES // BUFFER_BYTES):
            failed += 1
            problems.append(f"{service}:/new.dat read back wrong")
    op_cycles.extend(system.run_app(churner, name="churn"))
    # One untarred member per round, straight out of the DRAM model.
    member, expected = next(iter(tar_source_files().items()))
    unpacked = f"/untar{checked}/out/{member.rsplit('/', 1)[-1]}"
    if system.fs_read_back(unpacked) != expected:
        failed += 1
        problems.append(f"{unpacked} read back wrong")
    attempted = len(vpes) + len(FS_EXTENT_BLOCKS) + CHURN_FILES
    return _fs_segment(system, clock, sim_start, op_cycles, attempted,
                       failed, problems)


def _fs_pass(round_fn, seed: int, quick: bool, profiler) -> list:
    rounds, instances = ((1, QUICK_FS_INSTANCES) if quick
                         else (FS_ROUNDS, FS_INSTANCES))
    segments = []
    for _ in range(rounds):
        segments.append(round_fn(seed, instances, profiler))
        gc.collect()
    return segments


def fs_read(seed: int, quick: bool = False, profiler=None) -> list:
    return _fs_pass(_read_round, seed, quick, profiler)


def fs_write(seed: int, quick: bool = False, profiler=None) -> list:
    return _fs_pass(_write_round, seed, quick, profiler)


#: name -> pass function, in report order.
WORKLOADS = {
    "serve_kv": serve_kv,
    "serve_kv_observed": serve_kv_observed,
    "elastic_kv_lossy": elastic_kv_lossy,
    "fs_read": fs_read,
    "fs_write": fs_write,
}

#: workload -> the workload whose simulated results it must reproduce
#: exactly (the observer's zero-timing-effect contract); ``obs.*``
#: counters are the only ones allowed to differ.
SAME_SIMULATION_AS = {"serve_kv_observed": "serve_kv"}
