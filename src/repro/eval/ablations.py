"""Ablations: design-choice probes beyond the paper's figures.

Each quantifies a claim the paper makes in prose:

- ``buffer_size_sweep`` — "M3 benefits from larger buffer sizes until
  all available space in the SPM is used" (Section 5.4).
- ``pipe_slot_sweep`` — ringbuffer slots = sender credits: one slot
  serialises writer and reader, more slots pipeline them
  (Sections 4.4.3/4.5.7).
- ``hop_latency_sweep`` / ``kernel_placement`` — syscall cost grows
  with NoC distance, the reason syscalls stay cheap despite crossing
  the chip (Section 5.3).
- ``multiplexing_tradeoff`` — "trading system utilization for
  supporting heterogeneous cores" (Sections 1, 3.4): dedicated PEs are
  faster, shared PEs need fewer cores but pay switch time.
- ``multi_fs_instances`` — Section 7's future work: more m3fs
  instances restore the scalability lost in Figure 6's find run.
"""

from __future__ import annotations

from repro import params
from repro.eval.common import single
from repro.eval.fig6_scale import average_instance_time
from repro.eval.report import render_table
from repro.hw.platform import Platform, PlatformConfig
from repro.m3.kernel import syscalls
from repro.m3.lib.file import OpenFlags
from repro.m3.lib.pipe import Pipe, PipeWriter
from repro.m3.lib.vpe import VPE
from repro.m3.system import M3System
from repro.workloads.data import deterministic_bytes

# ---------------------------------------------------------------------------
# buffer sizes
# ---------------------------------------------------------------------------

BUFFER_SIZES = [1024, 2048, 4096, 8192, 16384, 32768]
SWEEP_FILE_BYTES = 1024 * 1024  # 1 MiB keeps the sweep quick


def read_time_with_buffer(buffer_bytes: int) -> int:
    """Cycles to read 1 MiB using ``buffer_bytes`` chunks."""
    system = M3System(pe_count=4).boot()
    system.fs_preload(
        {"/sweep.dat": deterministic_bytes("sweep", SWEEP_FILE_BYTES)},
        extent_blocks=SWEEP_FILE_BYTES // params.M3FS_BLOCK_BYTES,
    )

    def app(env):
        yield from env.vfs.stat("/")
        start = env.sim.now
        file = yield from env.vfs.open("/sweep.dat", OpenFlags.R)
        while True:
            chunk = yield from file.read(buffer_bytes)
            if not chunk:
                break
        yield from file.close()
        return env.sim.now - start

    return system.run_app(app, name="buffer-sweep")


def buffer_size_sweep() -> list[tuple[int, int]]:
    return [(size, read_time_with_buffer(size)) for size in BUFFER_SIZES]


# ---------------------------------------------------------------------------
# pipe slots / credits
# ---------------------------------------------------------------------------

PIPE_SLOT_COUNTS = [1, 2, 4, 8, 16]
PIPE_SWEEP_BYTES = 256 * 1024


def pipe_time_with_slots(slots: int) -> int:
    """Cycles to move 256 KiB through a pipe with ``slots`` credits."""
    system = M3System(pe_count=4).boot(with_fs=False)
    chunk = deterministic_bytes("pipe-sweep", 4096)

    def child(env, mem_sel, sgate_sel, ring, slot_count, rounds):
        writer = yield from PipeWriter.attach(
            env, mem_sel, sgate_sel, ring, slot_count
        )
        for _ in range(rounds):
            yield from writer.write(chunk)
        yield from writer.close()
        return ()

    def parent(env):
        pipe = yield from Pipe.create(env, ring_bytes=4096 * slots,
                                      slots=slots)
        vpe = yield from VPE.create(env, "writer")
        args = yield from pipe.delegate_writer(vpe)
        yield from vpe.run(child, *args, PIPE_SWEEP_BYTES // 4096)
        reader = yield from pipe.reader().open()
        start = env.sim.now
        while True:
            data = yield from reader.read(4096)
            if not data:
                break
        yield from vpe.wait()
        return env.sim.now - start

    return system.run_app(parent, name="pipe-sweep")


def pipe_slot_sweep() -> list[tuple[int, int]]:
    return [(slots, pipe_time_with_slots(slots)) for slots in PIPE_SLOT_COUNTS]


# ---------------------------------------------------------------------------
# NoC latency and kernel placement
# ---------------------------------------------------------------------------

HOP_CYCLES = [1, 3, 6, 10]


def syscall_time(hop_cycles: int | None = None,
                 app_node: int | None = None) -> int:
    """Average null-syscall cycles under custom NoC/placement settings."""
    kwargs = {}
    if hop_cycles is not None:
        kwargs["noc_hop_cycles"] = hop_cycles
    platform = Platform(PlatformConfig.homogeneous(30, **kwargs))
    system = M3System(platform=platform).boot(with_fs=False)
    iterations = 16

    def app(env):
        yield from env.syscall(syscalls.NOOP)  # warmup
        start = env.sim.now
        for _ in range(iterations):
            yield from env.syscall(syscalls.NOOP)
        return (env.sim.now - start) // iterations

    if app_node is not None:
        # claim the PEs before the target so the app lands there
        def hog(env):
            yield 10**12

        for node in range(1, app_node):
            system.spawn(hog, name=f"hog{node}")
    return system.run_app(app, name="syscall-sweep")


def hop_latency_sweep() -> list[tuple[int, int]]:
    return [(hop, syscall_time(hop_cycles=hop)) for hop in HOP_CYCLES]


def placement_sweep() -> list[tuple[int, int]]:
    """Syscall cost vs the app's Manhattan distance from the kernel."""
    rows = []
    for app_node in (1, 8, 17, 26):  # increasing distance in an 8-wide mesh
        rows.append((app_node, syscall_time(app_node=app_node)))
    return rows


# ---------------------------------------------------------------------------
# dedicated PEs vs multiplexed PE (Section 3.4's trade)
# ---------------------------------------------------------------------------

WORKER_COUNT = 4
WORKER_CYCLES = 100_000


def _worker(env):
    yield env.compute(WORKER_CYCLES)
    return ()


def dedicated_pes_time() -> tuple[int, int]:
    """(wall cycles, PEs used) with one PE per worker."""
    # kernel + parent + one PE per worker
    system = M3System(pe_count=WORKER_COUNT + 2).boot(with_fs=False)

    def parent(env):
        start = env.sim.now
        vpes = []
        for index in range(WORKER_COUNT):
            vpe = yield from VPE.create(env, f"w{index}")
            yield from vpe.run(_worker)
            vpes.append(vpe)
        for vpe in vpes:
            yield from vpe.wait()
        return env.sim.now - start

    wall = system.run_app(parent, name="dedicated")
    return wall, WORKER_COUNT + 1


def multiplexed_pe_time() -> tuple[int, int, int]:
    """(wall cycles, PEs used, switches) with all workers sharing the
    parent's PE via context switching."""
    system = M3System(pe_count=2, multiplexing=True).boot(with_fs=False)

    def parent(env):
        start = env.sim.now
        for index in range(WORKER_COUNT):
            vpe = yield from VPE.create(env, f"w{index}")
            yield from vpe.run(_worker)
            yield from vpe.wait_yield()
        return env.sim.now - start

    wall = system.run_app(parent, name="shared")
    return wall, 2, system.stats()["kernel.0.ctxsw.switches"]


def multiplexing_tradeoff() -> dict:
    dedicated_wall, dedicated_pes = dedicated_pes_time()
    shared_wall, shared_pes, switches = multiplexed_pe_time()
    return {
        "dedicated": {"wall": dedicated_wall, "pes": dedicated_pes},
        "shared": {"wall": shared_wall, "pes": shared_pes,
                   "switches": switches},
    }


# ---------------------------------------------------------------------------
# multiple m3fs instances vs the Figure 6 find bottleneck
# ---------------------------------------------------------------------------

FIND_INSTANCES = 16


def find_scaling_with_servers(server_count: int) -> float:
    """Average per-instance find time with 16 instances spread over
    ``server_count`` m3fs instances."""
    system = M3System(pe_count=40).boot()  # instance "m3fs"
    services = ["m3fs"] + [
        system.start_m3fs(name=f"m3fs{i}").service_name
        for i in range(1, server_count)
    ]
    return average_instance_time(system, "find", FIND_INSTANCES, services,
                                 warm_stat=False)


def multi_fs_sweep() -> list[tuple[int, float]]:
    return [(count, find_scaling_with_servers(count)) for count in (1, 2, 4)]


# ---------------------------------------------------------------------------
# caches vs bulk DTU transfers (the Section 7 cache extension)
# ---------------------------------------------------------------------------

CACHE_REGION_BYTES = 64 * 1024
CACHE_HOT_BYTES = 2 * 1024
CACHE_HOT_ROUNDS = 32


def cache_vs_bulk() -> dict:
    """Timings of two access patterns under two memory organisations.

    Streaming (one pass over 64 KiB): bulk DTU transfers into the SPM
    amortise per-transfer overhead; a cache pays a miss per 32-byte
    line.  Hot-set (2 KiB touched 32 times): the cache hits after the
    first pass; bulk re-transfers every time.  This is why the paper's
    SPM-based prototype is *good* at streaming workloads and why
    Section 7 wants caches for the rest.
    """
    from repro.dtu.registers import MemoryPerm
    from repro.hw.cache import CachedMemory
    from repro.m3.lib.gate import MemGate

    results = {}

    def run(app):
        system = M3System(pe_count=2).boot(with_fs=False)
        return system.run_app(app)

    def setup(env):
        gate = yield from MemGate.create(
            env, CACHE_REGION_BYTES, MemoryPerm.RW.value
        )
        yield from gate.write(0, deterministic_bytes("c", CACHE_REGION_BYTES))
        return gate

    def stream_bulk(env):
        gate = yield from setup(env)
        start = env.sim.now
        for offset in range(0, CACHE_REGION_BYTES, 16 * 1024):
            yield from gate.read(offset, 16 * 1024)
        return env.sim.now - start

    def stream_cached(env):
        gate = yield from setup(env)
        cached = CachedMemory(env, gate)
        start = env.sim.now
        for offset in range(0, CACHE_REGION_BYTES, 4096):
            yield from cached.load(offset, 4096)
        return env.sim.now - start

    def hot_bulk(env):
        gate = yield from setup(env)
        start = env.sim.now
        for _ in range(CACHE_HOT_ROUNDS):
            yield from gate.read(0, CACHE_HOT_BYTES)
        return env.sim.now - start

    def hot_cached(env):
        gate = yield from setup(env)
        cached = CachedMemory(env, gate)
        start = env.sim.now
        for _ in range(CACHE_HOT_ROUNDS):
            yield from cached.load(0, CACHE_HOT_BYTES)
        return env.sim.now - start

    results["stream_bulk"] = run(stream_bulk)
    results["stream_cached"] = run(stream_cached)
    results["hot_bulk"] = run(hot_bulk)
    results["hot_cached"] = run(hot_cached)
    return results


# ---------------------------------------------------------------------------


def buffer_size_table(rows: list[tuple[int, int]]) -> str:
    """The ``results/abl_buffer_size.txt`` table."""
    return render_table("Ablation: read buffer size (1 MiB file)",
                        ["buffer bytes", "cycles"], rows)


def pipe_slot_table(rows: list[tuple[int, int]]) -> str:
    """The ``results/abl_pipe_slots.txt`` table."""
    return render_table("Ablation: pipe ring slots (256 KiB transfer)",
                        ["slots", "cycles"], rows)


def hop_latency_table(rows: list[tuple[int, int]]) -> str:
    """The ``results/abl_hop_latency.txt`` table."""
    return render_table("Ablation: NoC hop latency vs syscall cost",
                        ["hop cycles", "syscall cycles"], rows)


def placement_table(rows: list[tuple[int, int]]) -> str:
    """The ``results/abl_placement.txt`` table."""
    return render_table("Ablation: app placement vs syscall cost",
                        ["app node", "syscall cycles"], rows)


def multi_fs_table(rows: list[tuple[int, float]]) -> str:
    """The ``results/abl_multi_fs.txt`` table."""
    return render_table("Ablation: 16x find vs number of m3fs instances",
                        ["m3fs instances", "avg cycles/instance"], rows)


def multiplexing_table(trade: dict) -> str:
    """The ``results/abl_multiplexing.txt`` table."""
    return render_table(
        "Ablation: dedicated PEs vs one multiplexed PE (4 workers)",
        ["configuration", "wall cycles", "PEs"],
        [("dedicated", trade["dedicated"]["wall"], trade["dedicated"]["pes"]),
         ("shared+ctxsw", trade["shared"]["wall"], trade["shared"]["pes"])])


def cache_table(results: dict) -> str:
    """The ``results/abl_cache.txt`` table."""
    return render_table(
        "Ablation: SPM+bulk transfers vs cache (cycles)",
        ["pattern", "bulk DTU", "cached"],
        [("stream 64 KiB once", results["stream_bulk"],
          results["stream_cached"]),
         ("2 KiB hot set x32", results["hot_bulk"], results["hot_cached"])])


#: result-file stem -> (sweep function, table renderer)
BENCH_SWEEPS = {
    "abl_buffer_size": (buffer_size_sweep, buffer_size_table),
    "abl_pipe_slots": (pipe_slot_sweep, pipe_slot_table),
    "abl_hop_latency": (hop_latency_sweep, hop_latency_table),
    "abl_placement": (placement_sweep, placement_table),
    "abl_multiplexing": (multiplexing_tradeoff, multiplexing_table),
    "abl_cache": (cache_vs_bulk, cache_table),
    "abl_multi_fs": (multi_fs_sweep, multi_fs_table),
}

EVALS = tuple(single(name, sweep, table)
              for name, (sweep, table) in sorted(BENCH_SWEEPS.items()))
