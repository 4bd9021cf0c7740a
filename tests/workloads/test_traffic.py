"""The traffic workload: schedules, the serving stack, faults, tails."""

import pytest

from repro.faults import FaultPlan
from repro.m3.kernel.ikrpc import IK_SEND_CREDITS
from repro.m3.system import stat_sum
from repro.obs import causal
from repro.workloads import traffic
from repro.workloads.traffic import TrafficProfile, build_schedule, run_profile

SMALL = TrafficProfile(requests=48, clients=64)


def test_schedule_is_a_pure_function_of_the_profile():
    first, second = build_schedule(SMALL), build_schedule(SMALL)
    assert first == second
    assert len(first) == SMALL.requests
    # strictly ordered ids, non-decreasing arrival cycles
    assert [a.req_id for a in first] == list(range(1, SMALL.requests + 1))
    assert all(later.at >= earlier.at
               for earlier, later in zip(first, first[1:]))
    # a different seed moves the arrivals
    assert build_schedule(TrafficProfile(
        requests=48, clients=64, seed=7)) != first


def test_schedule_shapes_and_bounds():
    arrivals = build_schedule(TrafficProfile(requests=200, clients=32))
    sizes = [a.value_len for a in arrivals if a.op == traffic.OP_PUT]
    assert sizes, "no puts in a 30% put mix?"
    assert all(16 <= size <= 384 for size in sizes)
    assert max(sizes) > 2 * min(sizes), "no heavy tail in sizes"
    assert all(0 <= a.client < 32 and 0 <= a.key_id < 64 for a in arrivals)

    bursty = build_schedule(TrafficProfile(
        requests=64, arrival="bursty", burst=8))
    # bursts: runs of arrivals spaced exactly burst_spacing apart
    gaps = [later.at - earlier.at
            for earlier, later in zip(bursty, bursty[1:])]
    assert gaps.count(TrafficProfile().burst_spacing) >= 32


def test_profile_validation():
    with pytest.raises(ValueError):
        TrafficProfile(arrival="lumpy")
    with pytest.raises(ValueError):
        TrafficProfile(keys=1000)
    with pytest.raises(ValueError):
        TrafficProfile(size_floor=0)


@pytest.mark.parametrize("shape, constraint", [
    (dict(kernel_count=1), "domain for the gateways besides domain 0"),
    (dict(gateways=0), "at least one gateway"),
])
def test_a_shape_the_serving_stack_cannot_take_is_refused_before_boot(
        shape, constraint, monkeypatch):
    """``kernel_count=1`` used to boot the whole stack and then die
    placing gateway 0 in domain ``1 + 0 % 0``."""
    built = []
    monkeypatch.setattr(traffic, "M3System",
                        lambda *args, **kwargs: built.append(kwargs))
    with pytest.raises(ValueError, match=constraint):
        run_profile(TrafficProfile(requests=4), **shape)
    assert not built


def test_load_point_completes_and_measures(small_point):
    result = small_point
    assert result.sent == result.completed == SMALL.requests
    assert result.kv_errors == 0
    assert result.histogram.count == SMALL.requests
    assert all(latency > 0 for latency in result.latencies.values())
    # both gateways served, both replicas were routed to and served
    assert all(served > 0 for served in result.served_by)
    assert sorted(result.route_counts) == ["kv0", "kv1"]
    assert all(count > 0 for count in result.replica_requests.values())


def test_load_point_is_deterministic(small_point):
    again = run_profile(SMALL)
    assert again.latencies == small_point.latencies
    assert again.served_by == small_point.served_by
    assert again.replica_requests == small_point.replica_requests


@pytest.fixture(scope="module")
def small_point():
    return run_profile(SMALL)


def test_observed_run_traces_the_tail():
    result = run_profile(SMALL, observe=True)
    # observability must not change the measured timing
    assert result.latencies == run_profile(SMALL).latencies
    req_id, _latency = max(result.latencies.items(),
                           key=lambda item: (item[1], -item[0]))
    request = causal.find_request(
        result.system.sim.obs, f"req{req_id}", category="traffic"
    )
    segments = causal.critical_path(request)
    breakdown = causal.component_breakdown(segments)
    assert sum(segment.cycles for segment in segments) == \
        request.total_cycles
    assert breakdown.get("service", 0) > 0, "kv handling missing"
    assert breakdown.get("noc-transfer", 0) > 0


def test_mid_load_fault_plan_is_survived():
    plan = FaultPlan(SMALL.seed).drop(0.02, window=(100_000, 200_000))
    result = run_profile(SMALL, fault_plan=plan)
    assert result.completed == SMALL.requests, "loss must be retransmitted"
    stats = result.system.stats()
    assert len(plan.events) > 0
    assert stats["noc.packets_lost"] == len(plan.events)
    assert stat_sum(stats, "dtu", "retransmits") > 0


def _fingerprint(result: traffic.TrafficResult) -> tuple:
    """Everything the eval report is a function of, hashable."""
    return (
        result.sent, result.completed, result.makespan,
        tuple(sorted(result.latencies.items())),
        result.tx_retries, result.gw_tx_retries,
        tuple(result.served_by),
        tuple(sorted(result.route_counts.items())),
        tuple(sorted(result.replica_requests.items())),
        tuple(result.system.stats().items()),
    )


@pytest.mark.parametrize("shape", [
    pytest.param({}, id="12pe-2domain"),
    pytest.param(dict(pe_count=24, kernel_count=4, gateways=3, ep_count=12),
                 id="24pe-4domain"),
])
def test_double_run_is_deterministic_and_quiesces(shape):
    mini = TrafficProfile(
        name="mini", seed=77, clients=24, requests=36, mean_gap=2_500,
        drain_cycles=200_000,
    )
    first, second = run_profile(mini, **shape), run_profile(mini, **shape)
    assert _fingerprint(first) == _fingerprint(second)
    _assert_quiescent(first.system)
    _assert_quiescent(second.system)


def _assert_quiescent(system) -> None:
    """The global invariant ``run_profile`` must return at: nothing on
    the event queue, no inter-kernel call or admitted request owed an
    answer, and every peer send endpoint back at its full credit
    window (each copy ever sent was refilled or reconciled)."""
    assert system.sim.pending_events == 0
    for kernel in system.kernels:
        assert kernel.ik.idle, kernel.label
        for peer, ep_index in kernel.peers.items():
            assert kernel.dtu.ep(ep_index).credits == IK_SEND_CREDITS, \
                (kernel.label, peer)


def test_lossy_elastic_run_quiesces_with_credits_conserved():
    """The mini ``elastic_kv_lossy``: 4 domains, depth routing over the
    heartbeat-carried gossip, the autoscaler migrating warm clones
    across domains, 2 % packet loss — retries, timeouts' refunds and
    duplicate acks all happen, and the books still balance."""
    profile = TrafficProfile(
        name="lossy", seed=11, clients=96, requests=150, arrival="bursty",
        mean_gap=1_000, burst=12, session_refresh=4, drain_cycles=400_000,
    )
    result = run_profile(
        profile, fault_plan=FaultPlan(profile.seed).drop(0.02),
        pe_count=24, kernel_count=4, gateways=6, ep_count=12,
        kv_domains=[1, 2], kv_op_cycles=2_000, policy="depth",
        heartbeats=True,
        autoscale=dict(epoch=10_000, up_depth=3, down_total=-1,
                       cooldown_epochs=2),
    )
    assert result.completed == result.sent == profile.requests
    kernels = result.system.kernels
    assert sum(kernel.ik_retries for kernel in kernels) > 0
    assert sum(kernel.ik.duplicates for kernel in kernels) > 0
    assert sum(kernel.migrations_out for kernel in kernels) > 0
    _assert_quiescent(result.system)
