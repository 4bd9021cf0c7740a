"""Traffic-serving benchmark: the open-loop throughput–latency eval.

Shape assertions:
- Every load point completes its full request count — the serving
  stack (loadgen -> NIC wire -> gateways -> routed kv tier) loses
  nothing, clean or faulted.
- The curve behaves like an open-loop curve: goodput grows with the
  offered rate, and the heaviest point pays for it with a p99 well
  above the lightest point's.
- Bursty arrivals at the same offered rate inflate the tail.
- The faulted point really dropped packets, recovered all of them via
  DTU retransmits, and still completed everything.
- The session router spread the gateway sessions over both replicas,
  and both replicas served requests.
- Seeded runs are deterministic: this run renders the committed
  report, byte for byte.
"""

from benchmarks.conftest import assert_committed
from repro.eval import traffic


def test_traffic(benchmark):
    results = benchmark.pedantic(traffic.run, rounds=1, iterations=1)

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
    assert sum(tail["breakdown"].values()) == tail["traced_cycles"]
    assert tail["breakdown"].get("service", 0) > 0, "kv never on the path?"

    assert_committed("traffic", traffic.render(results))
