"""The benchmark's own checks: the fold, the tail rule, and a quick
end-to-end pass against ``BENCHMARK.json``.

Not part of tier-1 (``testpaths = ["tests"]``); run with
``PYTHONPATH=src python -m pytest benchmarks/hostperf -q``.
"""

import json
import re

import pytest

from benchmarks.hostperf import bench, fold, workloads
from repro.workloads import traffic

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
CONTRACT = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("path, layer", [
    ("/x/src/repro/sim/engine.py", "sim"),
    ("/x/src/repro/noc/link.py", "noc"),
    ("/x/src/repro/dtu/dtu.py", "dtu"),
    ("/x/src/repro/hw/dram.py", "hw"),
    ("/x/src/repro/m3/kernel/kernel.py", "m3.kernel"),
    ("/x/src/repro/m3/lib/gate.py", "m3.lib"),
    ("/x/src/repro/m3/system.py", "m3.system"),
    ("/x/src/repro/m3/autoscale.py", "m3.system"),
    ("/x/src/repro/m3/services/m3fs/server.py", "m3fs"),
    ("/x/src/repro/m3/services/kvserv.py", "kvserv"),
    ("/x/src/repro/m3/services/netserv.py", "netserv"),
    ("/x/src/repro/obs/observer.py", "obs"),
    ("/x/src/repro/faults/plan.py", "faults"),
    ("/x/src/repro/workloads/traffic.py", "workloads"),
    ("/x/src/repro/params.py", "python"),
    ("/root/repo/benchmarks/hostperf/workloads.py", "python"),
    ("/usr/lib/python3.11/heapq.py", "python"),
    ("~", "python"),
])
def test_module_path_folds_to_layer(path, layer):
    assert fold.layer_of(path) == layer
    assert layer in fold.LAYERS


def test_percentile_is_nearest_rank():
    ordered = list(range(1, 101))
    assert fold.percentile(ordered, 50) == 50
    assert fold.percentile(ordered, 99) == 99
    assert fold.percentile(ordered, 100) == 100
    assert fold.percentile([7], 50) == 7


@pytest.mark.parametrize("samples, expected", [
    (19, 50),        # no rung has ten samples beyond it: the median
    (50, 75),        # p75 leaves 12 beyond, p90 only 5
    (999, 95),       # p99 would leave 9
    (1_000, 99),     # p99 leaves exactly 10
    (1_800, 99),
    (10_000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_beyond(samples, expected):
    values = list(range(samples))
    p, value, n = fold.tail(values)
    assert (p, n) == (expected, samples)
    beyond = sum(1 for v in values if v > value)
    assert beyond >= fold.TAIL_MIN_BEYOND or p == fold.TAIL_LADDER[0]


def test_kv_segment_refuses_more_than_the_nic_can_carry():
    profile = traffic.TrafficProfile(
        requests=workloads.NIC_DATAGRAM_LIMIT + 1)
    with pytest.raises(ValueError, match="NIC IRQ"):
        workloads.kv_segment("too-long", profile)


def test_contract_names_are_well_formed_and_unique():
    names = [entry["name"] for section in ("workloads", "end_to_end",
                                           "per_layer")
             for entry in CONTRACT[section]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in CONTRACT["workloads"]] == list(
        workloads.WORKLOADS)


def test_quick_report_emits_every_contract_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    assert bench.main(["--quick"]) == 0
    summary = json.loads((tmp_path / "latest.json").read_text())
    assert list(summary)[-1] == "claim" and summary["claim"] is None
    for workload in CONTRACT["workloads"]:
        emitted = summary["workloads"][workload["name"]]["end_to_end"]
        for metric in CONTRACT["end_to_end"]:
            assert emitted[metric["name"]]["unit"] == metric["unit"]
            assert emitted[metric["name"]]["median"] > 0
        assert set(emitted) == set(bench.END_TO_END) | set(bench.REPORT_ONLY)
        for zero in ("failed_ops_share", "sim_stats_mismatch"):
            assert emitted[zero]["median"] == 0
        assert all(NAME.fullmatch(name) for name in emitted)


def test_traced_run_emits_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    result, detail = bench.run_traced("serve_kv", workloads.DEFAULT_SEED,
                                      quick=True)
    assert result["correct"], detail["problems"]
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in CONTRACT["per_layer"]}
    for metric in CONTRACT["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    shares = sum(metrics[f"{layer}.self_share"]["value"]
                 for layer in fold.LAYERS)
    assert shares == pytest.approx(1.0, abs=0.01)
    assert metrics["obs.self_s"]["value"] < 0.01  # the off-cost contract
    assert (tmp_path / "trace_serve_kv.json").exists()
