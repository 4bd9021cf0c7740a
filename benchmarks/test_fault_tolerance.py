"""Fault-tolerance benchmark: loss sweep + PE-kill recovery.

Shape assertions:
- Every microbenchmark completes and returns correct data at every loss
  rate — the reliable DTU protocol masks the losses.
- Retransmissions appear exactly when packets are lost: zero at rate 0
  (the protocol is quiescent when nothing goes wrong), positive at 1e-2.
- The PE-kill scenario ends with the kernel recovering the VPE and the
  parent unblocked by an error reply, not hanging.
- Seeded runs are deterministic: same seed, same cycle counts.
"""

from benchmarks.conftest import assert_committed
from repro.eval import fault_tolerance
from repro.eval.fault_tolerance import LOSS_RATES, syscall_bench


def test_fault_tolerance(benchmark):
    results = benchmark.pedantic(fault_tolerance.run, rounds=1, iterations=1)

    sweep = results["loss"]
    assert set(sweep) == set(LOSS_RATES)
    for rate, benches in sweep.items():
        for name, entry in benches.items():
            assert entry["ok"], f"{name} corrupted data at loss rate {rate}"

    # Fault-free runs never retransmit; lossy runs must.
    clean = sweep[0.0]
    assert all(entry["retransmits"] == 0 for entry in clean.values())
    assert all(entry["lost"] == 0 for entry in clean.values())
    lossy = sweep[max(LOSS_RATES)]
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
    again = syscall_bench(max(LOSS_RATES))
    assert again["cycles"] == lossy["syscall"]["cycles"]
    assert again["lost"] == lossy["syscall"]["lost"]

    assert_committed("fault_tolerance", fault_tolerance.render(results))
