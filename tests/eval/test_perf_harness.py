"""The wall-clock perf harness: workload determinism, what it measures,
and the gate."""

import copy
import json

import pytest

from benchmarks.hostperf import micro
from benchmarks.perf import harness
from repro.eval import runall


def test_engine_workload_is_deterministic():
    first = harness.engine_workload()
    second = harness.engine_workload()
    assert first == second
    cycles, hops = first
    assert cycles > 0
    # Every ring passes the token WIDTH stages x HOPS times, plus one
    # final zero-token delivery per ring.
    assert hops == harness.ENGINE_RINGS * (
        harness.ENGINE_WIDTH * harness.ENGINE_HOPS + 1
    )


def _sample():
    return {
        "schema": harness.SCHEMA_VERSION,
        "engine": {"ring_hops_per_s": 100_000.0},
        "figures": {"fig3_micro": 1.0, "tab_arm": 0.5},
        "total_seconds": 1.5,
    }


def test_check_passes_within_tolerance():
    baseline = _sample()
    current = copy.deepcopy(baseline)
    current["engine"]["ring_hops_per_s"] = 80_000.0  # -20%
    current["total_seconds"] = 1.8  # +20%
    assert harness.check(current, baseline, tolerance=0.30) == []


def test_check_fails_on_throughput_regression():
    baseline = _sample()
    current = copy.deepcopy(baseline)
    current["engine"]["ring_hops_per_s"] = 60_000.0  # -40%
    failures = harness.check(current, baseline, tolerance=0.30)
    assert len(failures) == 1
    assert "engine ring" in failures[0]


def test_check_fails_on_wall_time_regression():
    baseline = _sample()
    current = copy.deepcopy(baseline)
    current["total_seconds"] = 2.5  # +67%
    failures = harness.check(current, baseline, tolerance=0.30)
    assert len(failures) == 1
    assert "eval suite" in failures[0]


def test_committed_baseline_is_valid():
    assert harness.BASELINE_PATH.exists()
    baseline = json.loads(harness.BASELINE_PATH.read_text())
    assert set(baseline) == {"schema", "engine", "figures", "total_seconds"}
    assert baseline["schema"] == harness.SCHEMA_VERSION
    assert baseline["engine"]["ring_hops_per_s"] > 0
    assert set(baseline["figures"]) == set(runall.BY_NAME)
    assert baseline["total_seconds"] > 0


def test_engine_entry_is_the_best_of_hostperf_ring_calls(monkeypatch):
    """The engine number is ``micro.sim_events``'s, not a second timer."""
    rates = [120_000.0, 150_000.0] + [90_000.0] * (harness.ENGINE_REPEATS - 2)
    calls = iter(rates)
    monkeypatch.setattr(micro, "sim_events", lambda: next(calls))
    monkeypatch.setattr(runall, "EVALS", ())
    measured = harness.measure()
    assert measured["engine"] == {"ring_hops_per_s": 150_000.0}
    assert next(calls, None) is None  # exactly ENGINE_REPEATS calls


def test_check_refuses_a_baseline_of_another_schema(tmp_path, monkeypatch,
                                                    capsys):
    stale = _sample()
    stale["schema"] = harness.SCHEMA_VERSION - 1
    path = tmp_path / "BENCH_perf.json"
    path.write_text(json.dumps(stale))
    monkeypatch.setattr(harness, "BASELINE_PATH", path)
    monkeypatch.setattr(harness, "measure", lambda: pytest.fail("measured"))
    assert harness.main(["--check"]) == 2
    message = capsys.readouterr().err
    assert f"schema {harness.SCHEMA_VERSION - 1}" in message
    assert f"schema {harness.SCHEMA_VERSION}" in message
