"""The profiling report module."""

import types

from repro.eval import profile
from repro.obs import Observer
from repro.sim import Simulator


def test_histogram_table_renders_buckets_and_summary():
    obs = Observer(Simulator())
    for value in (100, 200, 3000):
        obs.observe("lat", value)
    text = profile.histogram_table(obs.histograms["lat"])
    assert "Histogram lat" in text
    assert "n=3" in text
    assert "[128, 256)" in text
    assert "[2,048, 4,096)" in text


def test_summary_and_counter_tables():
    obs = Observer(Simulator())
    obs.observe("a.lat", 10)
    obs.count("x", 3)
    obs.count("y", 9)
    summary = profile.histogram_summary_table(obs)
    assert "a.lat" in summary and "p99<" in summary
    counters = profile.counter_table(obs)
    # Largest first.
    assert counters.index("y") < counters.index("x")


def test_profile_run_produces_report_and_matches_stats(tmp_path):
    system = profile.run()
    obs = system.sim.obs
    assert obs.histograms["kernel.syscall_cycles"].count >= profile.PROFILE_SYSCALLS
    assert obs.histograms["m3.syscall_rtt"].count >= profile.PROFILE_SYSCALLS
    assert obs.histograms["dtu.msg_rtt"].count > 0
    assert obs.histograms["m3fs.request_cycles"].count > 0

    # Exact utilisation: never above 1.0, and some link was busy.
    report = system.platform.network.utilization_report()
    assert report and all(0.0 <= u <= 1.0 for u in report.values())

    text = profile.render(system)
    assert "m3.syscall_rtt" in text
    assert "NoC link utilisation" in text
    assert "epoch" in text  # occupancy series made it in

    # Per-packet and per-message spans share their args: one mapping
    # per distinct value tuple, not one per span (the exported trace —
    # ``results/fig3_micro.trace.json`` — copies, and is unchanged).
    shared = [span.args for span in obs.spans
              if span.category == "noc"
              or (span.category == "dtu"
                  and span.name in ("message", "reply"))]
    distinct = {tuple(args.items()) for args in shared}
    assert len({id(args) for args in shared}) == len(distinct)
    assert len(distinct) * 10 < len(shared)


def test_busiest_links_tie_exactly_and_rank_by_link_key():
    """Naive float ``sum`` (3.10, 3.11) gives 0.1 + 0.2 + 0.3 one ulp
    more than 0.3 + 0.2 + 0.1, so a rounding error used to pick the
    busiest links on those Pythons; the exact sum ties them."""
    observer = types.SimpleNamespace(epoch=100, link_series={
        (1, 2): [(100, 0.1), (200, 0.2), (300, 0.3)],
        (0, 1): [(100, 0.3), (200, 0.2), (300, 0.1)],
    })
    text = profile.link_series_table(observer, top=1)
    assert "0->1" in text and "1->2" not in text
