"""Fault tolerance: microbenchmarks under packet loss, and PE failure.

Two experiments on top of the :mod:`repro.faults` framework:

1. A packet-loss sweep (0, 1e-4, 1e-3, 1e-2 per-packet drop probability)
   over Figure-3-style microbenchmarks (null syscall, file read, pipe)
   with reliable DTU messaging enabled.  Every run completes and returns
   correct data; the cost of the losses shows up as retransmissions and
   extra cycles.
2. A PE-kill scenario: a parent VPE waits on a child whose core is
   halted mid-run.  The kernel watchdog detects the dead core through a
   DTU probe, wipes the node's endpoints, revokes the VPE's
   capabilities, and fails the parent's VPE_WAIT with an error reply —
   instead of the parent blocking forever.

Both are fully deterministic: same seed, same cycle counts.
"""

from __future__ import annotations

from repro import params
from repro.eval.common import DEFAULT_SEED, single
from repro.eval.report import render_table
from repro.faults import FaultPlan
from repro.m3.kernel import syscalls
from repro.m3.kernel.kernel import SyscallError
from repro.m3.lib.file import OpenFlags
from repro.m3.lib.pipe import Pipe, PipeWriter
from repro.m3.lib.vpe import VPE
from repro.m3.system import M3System, stat_sum
from repro.workloads.data import deterministic_bytes

#: per-packet drop probabilities swept by the loss experiment.
LOSS_RATES = (0.0, 1e-4, 1e-3, 1e-2)

#: smaller than the Figure 3 file so the 4-rate sweep stays fast.
FILE_BYTES = 256 * 1024
BUFFER = params.MICRO_BUFFER_BYTES
SYSCALL_ITERATIONS = 16

#: PE-kill scenario schedule.
KILL_AT = 20_000
WATCHDOG_PERIOD = 5_000
PROBE_TIMEOUT = 2_000


def _faulty_system(loss_rate: float, seed: int) -> M3System:
    """An M3 system with reliable messaging and a seeded drop plan.

    The plan is installed before boot, so even the kernel's boot-time
    configuration traffic rides the reliable protocol under loss.
    """
    system = M3System(pe_count=4, reliable=True)
    FaultPlan(seed).drop(loss_rate).install(system.platform)
    return system


def _losses(system: M3System) -> dict:
    """What the losses cost, from the system's stats()."""
    stats = system.stats()
    return {
        "lost": stat_sum(stats, "noc", "packets_lost"),
        "retransmits": stat_sum(stats, "dtu", "retransmits"),
        "duplicates": stat_sum(stats, "dtu", "duplicates"),
    }


# -- the loss-sweep benchmarks ------------------------------------------------


def syscall_bench(loss_rate: float, seed: int = DEFAULT_SEED) -> dict:
    """Null-syscall latency under packet loss."""
    system = _faulty_system(loss_rate, seed)
    system.boot(with_fs=False)

    def app(env):
        start = env.sim.now
        for _ in range(SYSCALL_ITERATIONS):
            yield from env.syscall(syscalls.NOOP)
        return env.sim.now - start

    wall = system.run_app(app, name="syscall-bench")
    return {"cycles": wall // SYSCALL_ITERATIONS, "ok": True,
            **_losses(system)}


def read_bench(loss_rate: float, seed: int = DEFAULT_SEED) -> dict:
    """File read under packet loss, with end-to-end data verification."""
    system = _faulty_system(loss_rate, seed)
    system.boot()
    content = deterministic_bytes("fault-read", FILE_BYTES)
    system.fs_preload({"/bench.dat": content})

    def app(env):
        start = env.sim.now
        file = yield from env.vfs.open("/bench.dat", OpenFlags.R)
        got = bytearray()
        while True:
            chunk = yield from file.read(BUFFER)
            if not chunk:
                break
            got.extend(chunk)
        yield from file.close()
        return env.sim.now - start, bytes(got) == content

    wall, ok = system.run_app(app, name="read-bench")
    return {"cycles": wall, "ok": ok, **_losses(system)}


def pipe_bench(loss_rate: float, seed: int = DEFAULT_SEED) -> dict:
    """Pipe transfer between two VPEs under packet loss."""
    system = _faulty_system(loss_rate, seed)
    system.boot(with_fs=False)
    payload = deterministic_bytes("fault-pipe", BUFFER)

    def child(env, mem_sel, sgate_sel, ring, slots, rounds):
        writer = yield from PipeWriter.attach(env, mem_sel, sgate_sel, ring,
                                              slots)
        for _ in range(rounds):
            yield from writer.write(payload)
        yield from writer.close()
        return ()

    def parent(env):
        start = env.sim.now
        pipe = yield from Pipe.create(env, ring_bytes=BUFFER, slots=1)
        vpe = yield from VPE.create(env, "writer")
        args = yield from pipe.delegate_writer(vpe)
        yield from vpe.run(child, *args, FILE_BYTES // BUFFER)
        reader = yield from pipe.reader().open()
        received = 0
        correct = True
        while True:
            chunk = yield from reader.read(BUFFER)
            if not chunk:
                break
            received += len(chunk)
            correct = correct and bytes(chunk) == payload
        yield from vpe.wait()
        return env.sim.now - start, correct and received == FILE_BYTES

    wall, ok = system.run_app(parent, name="pipe-bench")
    return {"cycles": wall, "ok": ok, **_losses(system)}


BENCHES = {
    "syscall": syscall_bench,
    "read": read_bench,
    "pipe": pipe_bench,
}


def loss_sweep(seed: int = DEFAULT_SEED) -> dict:
    """rate -> bench -> result dict for the whole sweep."""
    return {
        rate: {name: bench(rate, seed) for name, bench in BENCHES.items()}
        for rate in LOSS_RATES
    }


# -- the PE-kill scenario ------------------------------------------------------


def pe_kill_scenario(seed: int = DEFAULT_SEED) -> dict:
    """Kill a child VPE's core mid-run; the watchdog recovers it."""
    system = M3System(pe_count=4, reliable=True)
    plan = FaultPlan(seed)
    # Nodes are allocated deterministically: kernel=0, parent=1, child=2.
    plan.kill_pe(node=2, at=KILL_AT)
    plan.install(system.platform)
    system.boot(with_fs=False)
    system.kernel.failover.start_watchdog(
        period=WATCHDOG_PERIOD, probe_timeout=PROBE_TIMEOUT
    )

    def child(env):
        while True:  # compute forever; only the fault stops this VPE
            yield env.pe.compute(1_000)

    def parent(env):
        vpe = yield from VPE.create(env, "victim")
        yield from vpe.run(child)
        try:
            yield from vpe.wait()
            outcome = "child exited normally"
        except SyscallError as exc:
            outcome = f"wait failed: {exc}"
        return outcome, env.sim.now

    outcome, finished_at = system.run_app(parent, name="parent")
    system.kernel.failover.stop_watchdog()
    victim_pe = system.platform.pe(2)
    stats = system.stats()
    return {
        "outcome": outcome,
        "recovered": stats["kernel.0.failover.recoveries"] == 1,
        "killed_at": KILL_AT,
        "detected_by": finished_at,
        "probes": stats["kernel.0.failover.probes_sent"],
        "pe_quarantined": victim_pe.failed,
        "fault_events": [
            (record.cycle, record.action) for record in plan.events
        ],
    }


# -- assembly ------------------------------------------------------------------


def run(seed: int = DEFAULT_SEED) -> dict:
    return {"loss": loss_sweep(seed), "kill": pe_kill_scenario(seed)}


def render(results: dict) -> str:
    rows = []
    for rate, benches in results["loss"].items():
        for name in BENCHES:
            entry = benches[name]
            rows.append((
                f"{rate:g}", name, entry["cycles"],
                "yes" if entry["ok"] else "NO",
                entry["lost"], entry["retransmits"], entry["duplicates"],
            ))
    table = render_table(
        "Fault tolerance: microbenchmarks under packet loss (cycles)",
        ["loss rate", "op", "cycles", "correct", "dropped", "retx", "dups"],
        rows,
    )
    kill = results["kill"]
    lines = [
        table,
        "",
        "PE-kill recovery scenario",
        "=========================",
        f"child core killed at cycle {kill['killed_at']:,}; watchdog "
        f"period {WATCHDOG_PERIOD:,}, probe timeout {PROBE_TIMEOUT:,}",
        f"parent unblocked at cycle {kill['detected_by']:,} "
        f"({kill['outcome']})",
        f"kernel recoveries: {1 if kill['recovered'] else 0}; "
        f"probes sent: {kill['probes']}; "
        f"failed PE quarantined: {'yes' if kill['pe_quarantined'] else 'no'}",
    ]
    return "\n".join(lines)


EVAL = single("fault_tolerance", run, render)
