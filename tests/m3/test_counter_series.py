"""The observer's counters and their per-epoch series, pinned.

One reliable three-kernel system runs everything that moves a counter:
packet loss, a watchdog recovery, a kernel domain killed
and found dead by heartbeats, a local and a cross-domain live
migration, and context switches — with telemetry at a 2,000-cycle
epoch and the flight recorder on.  The run totals (``obs.counters``),
every counter series and the flight dumps are compared with values
recorded from the pushed-counter implementation, so a counter that is
sampled from a component's own total instead (``Observer.monitor``)
must land in exactly the same epochs.  For the counters that come with
an instant, the series must also equal the instants per epoch.

``PYTHONPATH=src python tests/m3/test_counter_series.py`` prints the
pins afresh, for a change that means to move them.
"""

import collections
import zlib

import pytest

from repro.faults import FaultPlan
from repro.m3.kernel import syscalls
from repro.m3.kernel.kernel import SyscallError
from repro.m3.lib.vpe import VPE
from repro.m3.system import M3System
from repro.obs import flight

EPOCH = 2_000
VICTIM_NODE = 7  # domain 1's second VPE: the victim the watchdog finds
KILL_VICTIM_AT = 30_000
#: two parents (the migrator and mux_a) lose syscall messages and the
#: acks for them now and then: their DTUs retransmit, and no kernel
#: waits on the loss long enough to look dead.
LOSSY_NODES = (1, 14)
KILL_DOMAIN_AT = 90_000


def _worker(env, rounds):
    for _ in range(rounds):
        yield env.compute(2_000)
        yield from env.syscall(syscalls.NOOP)
    return rounds


def _compute(env, cycles):
    yield env.compute(cycles)
    return cycles


def _spin(env):
    while True:  # only a fault stops this VPE
        yield env.compute(1_000)


def _migrator(env):
    """Migrates one child inside domain 0 and one into domain 1."""
    local = yield from VPE.create(env, "local")
    yield from local.run(_worker, 12)
    yield env.compute(5_000)
    yield from local.migrate()
    far = yield from VPE.create(env, "far")
    yield from far.run(_worker, 20)
    yield env.compute(5_000)
    yield from far.migrate(domain=1)
    return (yield from local.wait()), (yield from far.wait())


def _multiplexer(env):
    """On a full domain: each child is switched in on this PE."""
    first = yield from VPE.create(env, "mux_a")
    yield from first.run(_worker, 6)
    results = []
    for index in range(2):
        child = yield from VPE.create(env, f"mux{index}")
        yield from child.run(_compute, 3_000)
        results.append((yield from child.wait_yield()))
    results.append((yield from first.wait()))
    return results


def _victim_parent(env):
    victim = yield from VPE.create(env, "victim")
    yield from victim.run(_spin)
    try:
        yield from victim.wait()
    except SyscallError:
        return "recovered"
    return "not recovered"


def run_scenario():
    system = M3System(pe_count=15, kernel_count=3, reliable=True,
                      multiplexing=True, observe=True)
    k0, k1, k2 = system.kernels
    k0.multiplexing = k1.multiplexing = False
    plan = FaultPlan(seed=5)
    for node in LOSSY_NODES:
        plan.drop(0.05, kinds=("message",), source=node)
        plan.drop(0.05, kinds=("msg_ack",), destination=node)
    plan.kill_pe(node=VICTIM_NODE, at=KILL_VICTIM_AT)
    plan.kill_pe(node=k2.node, at=KILL_DOMAIN_AT)
    plan.install(system.platform)
    telemetry = system.enable_telemetry(epoch=EPOCH)
    system.enable_flight_recorder()
    system.boot(with_fs=False)
    # Migrations stall a kernel's loop for thousands of cycles: six
    # misses keep the heartbeats from declaring a live kernel dead.
    system.start_heartbeats(miss_limit=6)
    k1.failover.start_watchdog(period=4_000)
    parents = [
        system.spawn(_victim_parent, name="victim_parent", domain=1),
        system.spawn(_migrator, name="migrator", domain=0),
        system.spawn(_multiplexer, name="multiplexer", domain=2),
    ]
    for index in range(2):
        system.spawn(_spin, name=f"filler{index}", domain=2)
    outcomes = [system.wait(vpe) for vpe in parents]
    system.sim.run(until=system.sim.now + 120_000)  # past the verdict
    system.stop_heartbeats()
    k1.failover.stop_watchdog()
    system.sim.run()
    telemetry.flush()
    return system, outcomes


def _capture(system):
    obs = system.sim.obs
    telemetry = obs.telemetry
    series = {
        name: zlib.crc32(repr(telemetry.points(name)).encode())
        for name in telemetry.names() if telemetry.kinds[name] == "counter"
    }
    dumps = [zlib.crc32(text.encode()) for text in obs.flight.dumps]
    return dict(sorted(obs.counters.items())), series, dumps


def _run_with_wide_dumps():
    """The scenario, its flight dumps written at the limits the pins
    were recorded at, wider than the eval's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flight, "SPAN_LIMIT", 10)
        patch.setattr(flight, "INSTANT_LIMIT", 12)
        patch.setattr(flight, "SERIES_LIMIT", 12)
        return run_scenario()


#: ``obs.counters`` at the end of the run.
COUNTERS = {
    "dtu.acks_sent": 308,
    "dtu.redirected": 2,
    "dtu.retransmits": 14,
    "dtu.sends.message": 159,
    "dtu.sends.reply": 136,
    "kernel.checkpoints": 2,
    "kernel.ctx_switches": 3,
    "kernel.migrations": 2,
    "kernel.migrations_in": 1,
    "kernel.migrations_out": 1,
    "kernel.probes_sent": 25,
    "kernel.recoveries": 1,
    "kernel0.heartbeat_misses": 3,
    "kernel0.heartbeats": 25,
    "kernel0.ik_duplicates": 5,
    "kernel0.ik_requests": 27,
    "kernel0.ik_retries": 10,
    "kernel0.ik_served": 20,
    "kernel0.ik_timeouts": 3,
    "kernel0.peer_deaths": 1,
    "kernel0.syscalls": 31,
    "kernel1.heartbeat_misses": 6,
    "kernel1.heartbeats": 25,
    "kernel1.ik_duplicates": 10,
    "kernel1.ik_requests": 26,
    "kernel1.ik_retries": 8,
    "kernel1.ik_served": 27,
    "kernel1.ik_timeouts": 6,
    "kernel1.peer_deaths": 1,
    "kernel1.syscalls": 19,
    "kernel2.heartbeat_misses": 3,
    "kernel2.heartbeats": 11,
    "kernel2.ik_duplicates": 2,
    "kernel2.ik_requests": 11,
    "kernel2.ik_retries": 5,
    "kernel2.ik_served": 11,
    "kernel2.ik_timeouts": 3,
    "kernel2.syscalls": 22,
    "noc.packets_delivered": 816,
    "noc.packets_dropped": 3,
    "noc.packets_injected": 819,
    "noc.payload_bytes": 262_008,
}
#: zlib.crc32 of ``repr(telemetry.points(name))`` per counter series.
SERIES = {
    "dtu.acks_sent": 3_879_181_563,
    "dtu.redirected": 61_402_461,
    "dtu.retransmits": 703_791_349,
    "dtu.sends.message": 589_082_601,
    "dtu.sends.reply": 1_044_045_855,
    "kernel.checkpoints": 1_125_882_747,
    "kernel.ctx_switches": 2_941_725_961,
    "kernel.migrations": 61_402_461,
    "kernel.migrations_in": 998_167_395,
    "kernel.migrations_out": 4_028_760_262,
    "kernel.probes_sent": 915_373_700,
    "kernel.recoveries": 815_573_134,
    "kernel0.heartbeat_misses": 701_288_372,
    "kernel0.heartbeats": 3_627_213_991,
    "kernel0.ik_duplicates": 2_050_507_471,
    "kernel0.ik_requests": 2_361_695_326,
    "kernel0.ik_retries": 3_991_522_200,
    "kernel0.ik_served": 1_243_459_236,
    "kernel0.ik_timeouts": 701_288_372,
    "kernel0.peer_deaths": 74_261_717,
    "kernel0.syscalls": 894_582_142,
    "kernel1.heartbeat_misses": 3_601_612_873,
    "kernel1.heartbeats": 3_627_213_991,
    "kernel1.ik_duplicates": 2_139_108_365,
    "kernel1.ik_requests": 3_497_924_864,
    "kernel1.ik_retries": 353_329_302,
    "kernel1.ik_served": 278_898_623,
    "kernel1.ik_timeouts": 3_601_612_873,
    "kernel1.peer_deaths": 74_261_717,
    "kernel1.syscalls": 136_397_588,
    "kernel2.heartbeat_misses": 701_288_372,
    "kernel2.heartbeats": 873_503_151,
    "kernel2.ik_duplicates": 1_898_771_172,
    "kernel2.ik_requests": 873_503_151,
    "kernel2.ik_retries": 998_503_613,
    "kernel2.ik_served": 1_383_241_731,
    "kernel2.ik_timeouts": 701_288_372,
    "kernel2.syscalls": 3_777_225_598,
    "noc.packets_delivered": 3_059_228_407,
    "noc.packets_dropped": 1_102_458_277,
    "noc.packets_injected": 3_625_591_385,
    "noc.payload_bytes": 1_986_600_931,
}
#: zlib.crc32 of each flight dump's text.
DUMPS = [468_082_801, 53_834_718, 1_396_135_764]


def test_scenario_reaches_every_counter():
    system, outcomes = run_scenario()
    assert outcomes == [
        "recovered", (12, 20), [3_000, 3_000, 6],
    ]
    counters = system.sim.obs.counters
    for name in ("dtu.acks_sent", "dtu.retransmits", "dtu.redirected",
                 "kernel.probes_sent", "kernel.recoveries",
                 "kernel.migrations", "kernel.migrations_out",
                 "kernel.migrations_in", "kernel.ctx_switches",
                 "kernel.checkpoints", "kernel0.ik_retries",
                 "kernel1.ik_timeouts", "kernel1.ik_duplicates",
                 "kernel0.heartbeats", "kernel1.peer_deaths",
                 "kernel0.syscalls", "kernel2.ik_served",
                 "kernel0.ik_requests"):
        assert counters.get(name, 0) > 0, name


def test_counters_and_series_equal_the_pushed_ones():
    system, _outcomes = _run_with_wide_dumps()
    counters, series, dumps = _capture(system)
    assert counters == COUNTERS
    assert series == SERIES
    assert dumps == DUMPS


def test_series_equal_their_instants_per_epoch():
    """Counted once, recorded once: each counter that has an instant
    moves in the epoch of each instant, by cycle."""
    system, _outcomes = run_scenario()
    obs = system.sim.obs
    telemetry = obs.telemetry
    kernel_of = {kernel.node: kernel.kernel_id for kernel in system.kernels}
    expected = collections.defaultdict(collections.Counter)
    for instant in obs.instants:
        name = {"retransmit": "dtu.retransmits",
                "probe": "kernel.probes_sent",
                "recover": "kernel.recoveries",
                "migrate": "kernel.migrations"}.get(instant.name)
        if instant.name == "ik_retry":
            name = f"kernel{kernel_of[instant.node]}.ik_retries"
        if name is not None:
            expected[name][instant.time // EPOCH] += 1
    assert len(expected) >= 7
    for name, per_epoch in expected.items():
        assert dict(telemetry.points(name)) == dict(per_epoch), name


if __name__ == "__main__":
    print("COUNTERS, SERIES, DUMPS =", _capture(_run_with_wide_dumps()[0]))
