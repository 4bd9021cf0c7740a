"""Domain-failover benchmark: kill one of two kernel domains mid-run.

Shape assertions:
- Every workload in the surviving domain ends correctly: the ``find``
  replay completes, the live-migrated VPE finishes on its new PE with
  an intact SPM journal, and the cross-domain session opened before the
  kill worked.
- The parked cross-domain wait is answered with an error (not left
  hanging), the dead domain's PEs are quarantined, and the cached
  service-owner entry for the dead domain's m3fs is purged.
- Detection happens after the kill, failover completes after
  detection, and no parked wait is left unanswered.
- Seeded runs are deterministic: this run renders the committed
  report, byte for byte.
"""

from benchmarks.conftest import assert_committed
from repro.eval import domain_failover


def test_domain_failover(benchmark):
    results = benchmark.pedantic(domain_failover.run, rounds=1, iterations=1)

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
    assert results["failover_done_at"] >= results["detected_at"]
    assert results["dead_domain_quarantined"]
    assert results["service_cache_purged"]
    assert results["unanswered_waits"] == 0

    rpc = results["rpc"]
    assert rpc["heartbeats"] > 0
    assert rpc["timeouts"] > 0, "heartbeat verdicts should be timeouts"

    assert_committed("domain_failover", domain_failover.render(results))
