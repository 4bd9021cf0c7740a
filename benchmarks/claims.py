"""The paper's qualitative claims, one predicate per result.

A predicate takes one eval's results (``runall.evaluate(...)[name]``)
and raises ``AssertionError`` when the shape the paper reports — who
wins, by roughly what factor, where the crossovers fall — does not
hold.  None reads ``results/``, so a claim can be checked on results
run under any perturbation.  EXPERIMENTS.md names the predicate behind
each verdict.
"""

import json

import pytest

from repro import params
from repro.eval import ablations, fault_tolerance, profile, traffic


def fig3_syscalls_and_file_ops(results):
    """Section 5.3-5.4: M3 null syscall ~200 cycles (~30 transfer +
    ~170 software), Linux 410; M3 beats Linux on read/write/pipe by
    several times, Lx-$ in between; M3's time is transfer-dominated,
    Linux's OS-dominated."""
    syscall = results["syscall"]
    assert 150 <= syscall["M3"]["total"] <= 260  # "about 200 cycles"
    assert syscall["Lx"]["total"] == 410
    assert 20 <= syscall["M3"]["xfers"] <= 45  # "about 30 cycles" transfers
    assert 140 <= syscall["M3"]["other"] <= 200  # "the other 170 cycles"

    for op in ("read", "write", "pipe"):
        m3 = results[op]["M3"]["total"]
        lx = results[op]["Lx"]["total"]
        lx_cache = results[op]["Lx-$"]["total"]
        # M3 wins by a clear factor; the warm-cache variant sits between.
        assert lx / m3 > 2.5, f"{op}: Lx/M3 = {lx / m3:.2f}"
        assert m3 < lx_cache < lx, f"{op}: ordering broken"
        # "a large portion of the difference is made up by data transfers":
        # M3's stack is transfer-dominated, Linux's is not.
        assert results[op]["M3"]["xfers"] > results[op]["M3"]["other"]
        assert results[op]["Lx"]["other"] > results[op]["M3"]["other"]

    # Write is more expensive than read on Linux (block zeroing), so
    # its gap to M3 is the bigger one.
    read, write = results["read"], results["write"]
    assert write["Lx"]["total"] > read["Lx"]["total"]
    assert (write["Lx"]["total"] / write["M3"]["total"]
            > read["Lx"]["total"] / read["M3"]["total"])


def fig4_file_fragmentation(rows):
    """Section 5.5: times fall monotonically with extent size, gains
    beyond the 256-block sweet spot are marginal, and the fragmented
    (16-block) end is clearly worse."""
    by_blocks = {blocks: (read, write) for blocks, read, write in rows}
    reads = [read for _b, read, _w in rows]
    writes = [write for _b, _r, write in rows]
    assert all(a >= b for a, b in zip(reads, reads[1:]))
    assert all(a >= b for a, b in zip(writes, writes[1:]))

    # The fragmented end is visibly worse than the sweet spot...
    assert by_blocks[16][0] > 1.10 * by_blocks[256][0]
    assert by_blocks[16][1] > 1.10 * by_blocks[256][1]
    # ...while everything beyond 256 gains almost nothing.  Writes keep
    # a little allocation overhead per extent, so their plateau
    # tolerance is slightly wider.
    assert by_blocks[256][0] < 1.02 * by_blocks[2048][0]
    assert by_blocks[256][1] < 1.06 * by_blocks[2048][1]
    assert params.M3FS_APPEND_BLOCKS == 256


def fig5_application_benchmarks(results):
    """Section 5.6, as the ratio M3/Lx: cat+tr "about twice as fast";
    tar/untar "only 20% and 16%" (same direction, tolerant band);
    find: "Linux is slightly faster"; sqlite "only slightly faster on
    M3" (compute-dominated)."""
    def ratio(name):
        return results[name]["M3"]["total"] / results[name]["Lx"]["total"]

    assert 0.35 <= ratio("cat+tr") <= 0.65, ratio("cat+tr")
    assert ratio("tar") <= 0.40, ratio("tar")
    assert ratio("untar") <= 0.40, ratio("untar")
    assert 1.0 < ratio("find") <= 1.25, ratio("find")
    assert 0.85 <= ratio("sqlite") < 1.0, ratio("sqlite")

    # Lx-$ sits between M3 and Lx wherever copies matter.
    for name in ("cat+tr", "tar", "untar"):
        systems = results[name]
        assert systems["M3"]["total"] < systems["Lx-$"]["total"] <= \
            systems["Lx"]["total"]

    # The App stacks are identical across systems for the native pair
    # and the trace replays (same computation on both systems).
    for name, systems in results.items():
        assert systems["M3"]["app"] == systems["Lx"]["app"]


def fig6_scalability(results):
    """Section 5.7: "all benchmarks scale very well with up to 4
    instances"; at 16, find (and untar, allocation-heavy) degrade the
    most, while tar and sqlite stay acceptable."""
    normalised = {bench: {count: norm for count, _avg, norm in series}
                  for bench, series in results.items()}
    for bench, series in normalised.items():
        assert series[4] <= 1.10, f"{bench} already degraded at 4: {series[4]}"

    # "the performance of find and untar decreases significantly".
    worst = max(normalised, key=lambda b: normalised[b][16])
    assert worst == "find"
    assert normalised["find"][16] > 1.8
    assert normalised["untar"][16] > normalised["tar"][16]
    assert normalised["tar"][16] < 1.4
    assert normalised["sqlite"][16] < 1.3


def fig6_multikernel_scale_out(results):
    """Section 7: a kernel and m3fs per domain shrinks the 16-instance
    degradation — the per-instance average strictly improves from 1 to
    4 domains for both find and untar."""
    averages = {bench: {count: avg for count, avg, _norm in series}
                for bench, series in results.items()}
    for bench in ("find", "untar"):
        series = averages[bench]
        assert series[2] < series[1], f"{bench} did not improve at 2 domains"
        assert series[4] < series[2], f"{bench} did not improve at 4 domains"

    # find is contention-dominated: two domains roughly halve its
    # per-instance time, well beyond untar's DRAM-bound improvement.
    assert averages["find"][2] < 0.6 * averages["find"][1]
    assert averages["untar"][4] < 0.9 * averages["untar"][1]


def fig7_fft_accelerator(results):
    """Section 5.8: the accelerator is ~30x faster than the software
    FFT, and M3's pipe/exec/file overheads are far below Linux's."""
    linux = results["Linux"]
    m3_soft = results["M3"]
    m3_accel = results["M3+accelerator"]
    assert m3_soft["fft"] / m3_accel["fft"] == pytest.approx(
        params.FFT_ACCEL_SPEEDUP, rel=0.05)
    # Linux's chain is "about 3 M cycles": within 25 %.
    assert 2.25e6 <= linux["total"] <= 3.75e6
    # End-to-end: the accelerated chain crushes both software versions.
    assert m3_accel["total"] < 0.2 * linux["total"]
    assert m3_soft["total"] < linux["total"]
    # The software FFT dominates both software configurations.
    assert m3_soft["fft"] / m3_soft["total"] > 0.9
    # "the fast abstractions of M3 lower the bar for using accelerators".
    linux_overhead = linux["total"] - linux["fft"]
    m3_overhead = m3_accel["total"] - m3_accel["fft"]
    assert m3_overhead < 0.5 * linux_overhead


def sec52_linux_xtensa_vs_arm(rows):
    """Section 5.2: syscall 410 (Xtensa) / 320 (ARM); creating a 2 MiB
    file has ~2.2 M / ~2.4 M cycles overhead; copying it ~3.2 M on
    both."""
    metrics = {name: (xtensa, arm) for name, xtensa, arm in rows}
    assert metrics["null syscall (cycles)"] == (410, 320)  # exact paper values
    create = metrics["create 2 MiB file, overhead (cycles)"]
    copy = metrics["copy 2 MiB file, overhead (cycles)"]
    # Magnitudes within ~25% of the paper's 2.2M/2.4M and 3.2M/3.2M.
    assert 1.65e6 <= create[0] <= 2.75e6
    assert 1.8e6 <= create[1] <= 3.0e6
    assert create[1] > create[0]  # ARM slightly higher, as reported
    assert 2.4e6 <= copy[0] <= 4.0e6
    assert 2.4e6 <= copy[1] <= 4.0e6
    # "3.2 million cycles overhead on both architectures": near-equal.
    assert abs(copy[0] - copy[1]) / copy[0] < 0.10


def read_buffer_size(rows):
    """"M3 benefits from larger buffer sizes until all available space
    in the SPM is used" (Section 5.4) — with diminishing returns."""
    times = [cycles for _size, cycles in rows]
    assert all(a > b for a, b in zip(times, times[1:]))  # strictly better
    # ...but with diminishing returns: the last doubling gains far less
    # than the first one.
    first_gain = times[0] - times[1]
    last_gain = times[-2] - times[-1]
    assert last_gain < first_gain / 4


def spm_bulk_vs_cache(results):
    """Section 7's cache extension: bulk DTU transfers win for
    streaming, caches win for hot sets."""
    assert results["stream_bulk"] < results["stream_cached"] / 5
    assert results["hot_cached"] < results["hot_bulk"]


def noc_hop_latency(rows):
    """Syscall cost grows (mildly) with NoC hop latency."""
    times = [cycles for _hop, cycles in rows]
    assert all(a <= b for a, b in zip(times, times[1:]))
    assert times[-1] > times[0]
    # Even a slow NoC keeps the syscall well under Linux's 410 cycles:
    # the software path dominates, not the wire.
    assert times[-1] < 410


def m3fs_instances(rows):
    """Section 7 future work: more m3fs instances recover the
    scalability the single instance loses in Figure 6's find run."""
    by_servers = dict(rows)
    assert by_servers[2] < 0.7 * by_servers[1]
    assert by_servers[4] < by_servers[2]


def dedicated_vs_multiplexed_pes(trade):
    """Section 3.4's trade: dedicated PEs are faster; a shared PE costs
    wall time (context switches) but far fewer cores."""
    dedicated, shared = trade["dedicated"], trade["shared"]
    assert dedicated["wall"] < shared["wall"]
    assert shared["pes"] < dedicated["pes"]
    # The shared run must pay real switch costs (2 per worker at least)
    # but is not pathological: bounded by serialisation + switches.
    assert shared["switches"] >= 2 * ablations.WORKER_COUNT
    assert shared["wall"] < 8 * dedicated["wall"]


def pipe_ring_slots(rows):
    """One ring slot serialises the pipe ends; more slots pipeline them."""
    by_slots = dict(rows)
    assert by_slots[1] > by_slots[4] > by_slots[8] * 0.99
    assert by_slots[1] / by_slots[16] > 1.5  # pipelining pays


def app_placement(rows):
    """Placing an app farther from the kernel costs hop cycles."""
    times = [cycles for _node, cycles in rows]
    assert times[-1] > times[0]
    assert all(a <= b for a, b in zip(times, times[1:]))


def fault_tolerance_loss_and_kill(results):
    """Every microbenchmark returns correct data at every loss rate;
    retransmissions appear exactly when packets are lost; a killed PE
    is recovered and its parent unblocked by an error reply."""
    sweep = results["loss"]
    assert set(sweep) == set(fault_tolerance.LOSS_RATES)
    for rate, benches in sweep.items():
        for name, entry in benches.items():
            assert entry["ok"], f"{name} corrupted data at loss rate {rate}"

    # Fault-free runs never retransmit; lossy runs must.
    clean = sweep[0.0]
    assert all(entry["retransmits"] == 0 for entry in clean.values())
    assert all(entry["lost"] == 0 for entry in clean.values())
    lossy = sweep[max(fault_tolerance.LOSS_RATES)]
    assert any(entry["lost"] > 0 for entry in lossy.values())
    assert any(entry["retransmits"] > 0 for entry in lossy.values())
    # Losses cost cycles: the lossy bulk ops are slower than clean ones.
    assert lossy["read"]["cycles"] > clean["read"]["cycles"]

    kill = results["kill"]
    assert kill["recovered"]
    assert kill["pe_quarantined"]
    assert "failed" in kill["outcome"]
    assert kill["detected_by"] > kill["killed_at"]
    assert kill["fault_events"] == [(kill["killed_at"], "kill")]

    # Determinism: a fresh run with the same seed lands on the same cycle.
    again = fault_tolerance.syscall_bench(max(fault_tolerance.LOSS_RATES))
    assert again["cycles"] == lossy["syscall"]["cycles"]
    assert again["lost"] == lossy["syscall"]["lost"]


def domain_failover_survival(results):
    """Killing one of two kernel domains: every workload in the
    survivor ends correctly, the parked cross-domain wait is answered
    with an error, and detection and failover come in order."""
    find_verdict, find_wall = results["find"]
    assert find_verdict == "find-ok"
    assert find_wall > 0

    mig_verdict, origin, new_node, final_node, moved = results["migration"]
    assert mig_verdict == "mig-ok", "SPM journal corrupted by migration"
    assert moved and final_node == new_node != origin
    assert results["migrations"] == 1

    spill_outcome, session_ok, _done = results["spill"]
    assert session_ok, "cross-domain session never worked"
    assert "err-replied" in spill_outcome, spill_outcome

    assert results["detected_at"] > results["killed_at"]
    # Declared dead within miss-limit + 1 heartbeat periods of the kill.
    assert (results["detected_at"] - results["killed_at"]
            <= (params.KERNEL_HEARTBEAT_MISS_LIMIT + 1)
            * params.KERNEL_HEARTBEAT_PERIOD)
    assert results["failover_done_at"] >= results["detected_at"]
    assert results["dead_domain_quarantined"]
    assert results["service_cache_purged"]
    assert results["unanswered_waits"] == 0

    rpc = results["rpc"]
    assert rpc["heartbeats"] > 0
    assert rpc["timeouts"] > 0, "heartbeat verdicts should be timeouts"
    # Exactly once: retried copies reached the dedup and were absorbed,
    # and each absorbed copy was a retry.
    assert 0 < rpc["duplicates_absorbed"] <= rpc["retries"]


def traffic_serving(results):
    """The open-loop serving curve: every point completes, goodput
    grows with the offered rate while the heaviest point pays in p99,
    bursts inflate the tail, faults are retransmitted, and the router
    spreads sessions over both replicas."""
    points = results["curve"] + [results["bursty"], results["faulted"]]
    for point in points:
        assert point["completed"] == point["sent"] == traffic.REQUESTS, (
            point["name"], point["completed"])
        assert point["kv_errors"] == 0

    lightest, heaviest = results["curve"][0], results["curve"][-1]
    assert heaviest["goodput"] > 3 * lightest["goodput"]
    assert heaviest["p99"] > 4 * lightest["p99"], "no queueing at saturation?"
    assert all(point["p50"] <= point["p99"] <= point["p999"]
               for point in points)

    reference = next(point for point in results["curve"]
                     if point["mean_gap"] == traffic.REFERENCE_GAP)
    assert results["bursty"]["p99"] > 2 * reference["p99"]

    faulted = results["faulted"]
    assert faulted["noc_lost"] > 0
    assert faulted["retransmits"] > 0, "losses should be retransmitted"

    assert sorted(reference["route_counts"]) == ["kv0", "kv1"]
    assert all(served > 0
               for served in reference["replica_requests"].values())

    tail = results["tail"]
    # the slowest request sits inside the p999 sub-bucket's bound
    assert reference["p50"] < tail["latency"] <= reference["p999"]
    assert sum(tail["breakdown"].values()) == tail["total_cycles"]
    assert tail["breakdown"].get("service", 0) > 0, "kv never on the path?"


def critical_path_attribution(results):
    """The causal tracer names >= 95 % of each traced request's cycles
    (the partition is exact, so 100 %), and a cross-domain
    open_session shows inter-kernel RPC hops on its critical path."""
    for label, path in results.items():
        named = path["named_cycles"]
        assert named >= 0.95 * path["total_cycles"], (
            f"{label}: only {named}/{path['total_cycles']} cycles "
            "attributed to named components (floor: 95%)")
    syscall = results["syscall"]
    assert (sum(cycles for _at, cycles, *_rest in syscall["segments"])
            == syscall["total_cycles"])
    breakdown = syscall["breakdown"]
    assert breakdown["kernel"] > 0 and breakdown["libm3"] > 0
    assert breakdown["dtu-transfer"] > 0 and breakdown["noc-transfer"] > 0

    remote = results["open_session (k=2)"]["breakdown"]
    # The request crossed kernel domains: inter-kernel RPC hops are on
    # the critical path, plus the service's own handler.
    assert remote["inter-kernel"] > 0
    assert remote["service"] > 0


def profile_report(results):
    """The report has the syscall-latency and message-RTT histograms
    and link utilisation; the Chrome trace round-trips through
    ``json.loads`` with ``ph``/``ts``/``pid`` on its events."""
    files = results[None]
    text = files[profile.REPORT_FILE]
    assert "kernel.syscall_cycles" in text
    assert "dtu.msg_rtt" in text
    assert "utilisation" in text

    trace = json.loads(files[profile.TRACE_FILE])
    events = trace["traceEvents"]
    assert events
    for event in events:
        assert "ph" in event and "pid" in event
        assert "ts" in event or event["ph"] == "M"
    assert any(e["ph"] == "X" for e in events)
    assert trace["metadata"]["clock"] == "simulated-cycles"


#: registry name -> predicate, in ``runall.EVALS`` order; ``None`` for
#: an eval that makes no shape claim.
CLAIMS = {
    "traffic": traffic_serving,
    "telemetry": None,
    "autoscale_fault": None,
    "autoscale": None,
    "traffic_fault": None,
    "fig6_scale": fig6_scalability,
    "fig6_multikernel": fig6_multikernel_scale_out,
    "fig4_extents": fig4_file_fragmentation,
    "fig3_micro": fig3_syscalls_and_file_ops,
    "fig5_apps": fig5_application_benchmarks,
    "abl_buffer_size": read_buffer_size,
    "abl_cache": spm_bulk_vs_cache,
    "abl_hop_latency": noc_hop_latency,
    "abl_multi_fs": m3fs_instances,
    "abl_multiplexing": dedicated_vs_multiplexed_pes,
    "abl_pipe_slots": pipe_ring_slots,
    "abl_placement": app_placement,
    "fault_tolerance": fault_tolerance_loss_and_kill,
    "tab_arm": sec52_linux_xtensa_vs_arm,
    "fig7_accel": fig7_fft_accelerator,
    "domain_failover": domain_failover_survival,
    "profile": profile_report,
    "critical_path": critical_path_attribution,
    "telemetry_flight": None,
}
