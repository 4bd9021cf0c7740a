"""Domain failover: kill one of two kernel domains mid-workload.

The survival story this figure tells, end to end:

- Two kernel domains boot on a partitioned mesh (each with its own
  m3fs instance), exchange heartbeats over the idempotent inter-kernel
  RPC layer, and serve a mixed workload under a seeded packet-loss
  plan: a ``find`` trace replay, a live VPE migration, a VPE spilled
  into the peer domain with a parked cross-domain ``VPE_WAIT``, and a
  cross-domain filesystem session.
- Mid-run the fault plan halts kernel domain 1's kernel core.  Domain
  0's heartbeat RPCs start timing out; after the configured miss limit
  it declares the peer dead and fails over: the parked cross-domain
  wait is answered with an error, the dead domain's PEs are
  quarantined, capabilities pointing into it are revoked, and the
  cached service-owner entry for the dead domain's m3fs is purged.
- Every VPE in the surviving domain finishes with a correct result;
  no parked wait is left unanswered.

Everything is deterministic: same seed, same cycle counts, same
report, byte for byte.
"""

from __future__ import annotations

from repro import params
from repro.eval.common import DEFAULT_SEED, fs_name, single
from repro.eval.report import render_table
from repro.faults import FaultPlan
from repro.m3.kernel import syscalls
from repro.m3.kernel.kernel import SyscallError
from repro.m3.lib.vpe import VPE
from repro.m3.system import M3System, stat_sum
from repro.workloads.trace import M3Replayer
from repro.workloads.tracegen import TRACE_BENCHMARKS

#: 12 PEs, two domains of 6: kernels at nodes 0 and 6.
PE_COUNT = 12
KERNEL_COUNT = 2
#: background packet loss, active the whole run (boot included).
LOSS_RATE = 0.002
#: when the fault plan halts kernel domain 1's kernel core (node 6) —
#: chosen mid-``find`` so the surviving workload rides out the failover.
KILL_AT = 24_000
#: rounds of compute+syscall the migrating VPE performs.  The parent
#: triggers the live migration at the half-way mark, which lands after
#: ``find`` exits and frees the only spare PE in the full domain.
MIG_ROUNDS = 36
MIG_ROUND_COMPUTE = 3_000
MIG_BUFFER_BYTES = 4_096


# -- the workload apps (module-level so they survive a fork) -----------------


def _find_app(env, service, trace):
    """Replay the ``find`` trace against the local m3fs instance."""
    from repro.m3.lib.m3fs_client import M3fsClient

    client = yield from M3fsClient.connect(env, service=service)
    env.vfs.mount("/", client)
    start = env.sim.now
    yield from M3Replayer(env).replay(trace)
    return ("find-ok", env.sim.now - start)


def _migrating_child(env, rounds):
    """Compute/syscall loop that journals its progress into SPM.

    Each round stores a recognisable byte into an SPM buffer; the final
    verification reads the whole buffer back.  Only a migration that
    really moved the SPM image (and kept the syscall channel working)
    can produce a fully stamped buffer from the new PE.
    """
    base = env.alloc_buffer(MIG_BUFFER_BYTES)
    for index in range(rounds):
        env.pe.spm_data.write(base + index, bytes([(index * 7 + 1) % 256]))
        yield env.compute(MIG_ROUND_COMPUTE)
        yield from env.syscall(syscalls.NOOP)
    stamped = env.pe.spm_data.read(base, rounds)
    expected = bytes((index * 7 + 1) % 256 for index in range(rounds))
    return ("mig-ok" if bytes(stamped) == expected else "mig-CORRUPT",
            env.pe.node)


def _migration_parent(env):
    """Start the journaling child, live-migrate it mid-run, await it."""
    vpe = yield from VPE.create(env, "pilgrim")
    yield from vpe.run(_migrating_child, MIG_ROUNDS)
    origin = None
    for kernel in env.system.kernels:
        if vpe.vpe_id in kernel.vpes:
            origin = kernel.vpes[vpe.vpe_id].node
    # Let the child get about halfway before pulling the PE out from
    # under it.
    yield env.compute(MIG_ROUNDS * MIG_ROUND_COMPUTE // 2)
    new_node = yield from vpe.migrate()
    verdict, final_node = yield from vpe.wait()
    return (verdict, origin, new_node, final_node,
            final_node == new_node and new_node != origin)


def _spill_parent(env):
    """Fill the remote domain with a child and park on its exit.

    The local domain is full by the time this runs, so ``create_vpe``
    spills the child into domain 1 over the inter-kernel protocol; the
    subsequent wait parks cross-domain.  When domain 1 dies, failover
    must answer the wait with an error instead of leaving this VPE
    blocked forever.
    """
    from repro.m3.lib.m3fs_client import M3fsClient

    # A cross-domain session first: opened against domain 1's m3fs via
    # srv_open (idempotent under the loss plan), proving the remote
    # service path works before the kill.
    client = yield from M3fsClient.connect(env, service=fs_name(1))
    env.vfs.mount("/remote", client)
    stat = yield from env.vfs.stat("/remote/")
    session_ok = stat is not None
    vpe = yield from VPE.create(env, "castaway")
    yield from vpe.run(_spin_forever)
    try:
        yield from vpe.wait()
        outcome = "wait returned (unexpected)"
    except SyscallError as exc:
        outcome = f"wait err-replied: {exc}"
    return (outcome, session_ok, env.sim.now)


def _spin_forever(env):
    while True:  # only the domain kill stops this VPE
        yield env.compute(1_000)


# -- the scenario -------------------------------------------------------------


def run(seed: int = DEFAULT_SEED) -> dict:
    system = M3System(
        pe_count=PE_COUNT, kernel_count=KERNEL_COUNT, reliable=True
    )
    plan = FaultPlan(seed).drop(LOSS_RATE)
    plan.kill_pe(node=system.kernels[1].node, at=KILL_AT)
    plan.install(system.platform)
    system.boot(with_fs=False)
    for domain in range(KERNEL_COUNT):
        system.start_m3fs(name=fs_name(domain), domain=domain)
    system.start_heartbeats()

    setup_files, trace = TRACE_BENCHMARKS["find"]("/work")
    if setup_files:
        system.fs_preload(setup_files, server=system.fs_servers[fs_name(0)])

    # Domain-0 node budget (6 PEs): kernel=0, m3fs=1, find=2,
    # mig-parent=3, spill-parent=4, pilgrim=5 — the domain is then
    # full, so spill-parent's child lands in domain 1.  The migration
    # fires after ``find`` exits, reusing its freed node as the target.
    find_vpe = system.spawn(_find_app, fs_name(0), trace,
                            name="find", domain=0)
    mig_vpe = system.spawn(_migration_parent, name="mig-parent", domain=0)
    spill_vpe = system.spawn(_spill_parent, name="spill-parent", domain=0)

    find_result = system.wait(find_vpe)
    mig_result = system.wait(mig_vpe)
    spill_result = system.wait(spill_vpe)
    system.sim.run()  # drain redirect windows and retry timers
    system.stop_heartbeats()

    k0, k1 = system.kernels
    detected = completed = None
    if k0.failover.failover_log:
        _peer, detected, completed, _reason = k0.failover.failover_log[0]
    stats = system.stats()
    # Parked-wait audit: every cross-domain wait must have been
    # answered (normally or by failover).  Only live kernels count —
    # the murdered kernel's own ledgers die with it.
    unanswered = sum(
        len(vpe.remote_waiters)
        for kernel in system.kernels if not kernel.pe.failed
        for vpe in kernel.vpes.values()
    ) + int(not k0.ik.idle)
    return {
        "find": find_result,
        "migration": mig_result,
        "spill": spill_result,
        "killed_at": KILL_AT,
        "detected_at": detected,
        "failover_done_at": completed,
        "service_cache_purged": fs_name(1) not in k0.sessions.owners,
        "dead_domain_quarantined": all(
            system.platform.pe(node).failed for node in sorted(k1.domain)
        ),
        "unanswered_waits": unanswered,
        "rpc": {
            "sent": stats["kernel.0.ik.requests_sent"],
            "retries": stats["kernel.0.ik.retries"],
            "timeouts": stats["kernel.0.ik.timeouts"],
            "duplicates_absorbed": stat_sum(stats, "kernel", "ik.duplicates"),
            "heartbeats": stats["kernel.0.failover.heartbeats_sent"],
        },
        "noc": {
            "lost": stat_sum(stats, "noc", "packets_lost"),
            "retransmits": stat_sum(stats, "dtu", "retransmits"),
        },
        "migrations": stats["kernel.0.migration.migrations"],
        "fault_events": len(plan.events),
    }


# -- rendering ----------------------------------------------------------------


def render(results: dict) -> str:
    """The ``results/domain_failover.txt`` report."""
    find_verdict, find_wall = results["find"]
    mig_verdict, origin, new_node, final_node, moved = results["migration"]
    spill_outcome, session_ok, spill_done = results["spill"]
    rpc, noc = results["rpc"], results["noc"]
    rows = [
        ("find (domain 0, under loss)",
         "ok" if find_verdict == "find-ok" else "FAILED",
         f"{find_wall:,} cycles"),
        ("live migration (pilgrim)",
         "ok" if mig_verdict == "mig-ok" and moved else "FAILED",
         f"node {origin} -> {new_node}, finished on {final_node}"),
        ("cross-domain session (m3fs1)",
         "ok" if session_ok else "FAILED", "opened before the kill"),
        ("cross-domain wait (castaway)",
         "ok" if "err-replied" in spill_outcome else "FAILED",
         f"unparked at cycle {spill_done:,}"),
    ]
    table = render_table(
        "Domain failover: workload verdicts (k=2, domain 1 killed)",
        ["workload", "verdict", "detail"],
        rows,
    )
    detected = results["detected_at"]
    completed = results["failover_done_at"]
    lines = [
        table,
        "",
        "Failure detection and recovery",
        "==============================",
        f"kernel domain 1 core halted at cycle {results['killed_at']:,}",
        f"heartbeat verdict declared it dead at cycle {detected:,} "
        f"(detection latency {detected - results['killed_at']:,} cycles)",
        f"failover completed at cycle {completed:,} "
        f"({completed - detected:,} cycles after detection)",
        f"dead domain PEs quarantined: "
        f"{'yes' if results['dead_domain_quarantined'] else 'NO'}; "
        f"service-owner cache purged: "
        f"{'yes' if results['service_cache_purged'] else 'NO'}",
        f"parked waits left unanswered: {results['unanswered_waits']}",
        "",
        "RPC and NoC accounting (surviving kernel)",
        "=========================================",
        f"inter-kernel RPCs sent: {rpc['sent']:,} "
        f"(heartbeats: {rpc['heartbeats']:,})",
        f"kernel-level retries: {rpc['retries']:,}; "
        f"timeout verdicts: {rpc['timeouts']:,}; "
        f"duplicates absorbed by reply cache: {rpc['duplicates_absorbed']:,}",
        f"NoC packets lost: {noc['lost']:,} "
        f"(injected faults: {results['fault_events']:,}); "
        f"DTU retransmits: {noc['retransmits']:,}",
        f"VPE migrations performed: {results['migrations']:,} "
        f"(redirect window {params.DTU_REDIRECT_WINDOW_CYCLES:,} cycles)",
    ]
    return "\n".join(lines)


EVAL = single("domain_failover", run, render)
