"""The profiling report module."""

from repro.eval import profile
from repro.obs import Observer
from repro.sim import Simulator


def test_histogram_table_renders_buckets_and_summary():
    obs = Observer(Simulator())
    for value in (100, 200, 3000):
        obs.observe("lat", value)
    text = profile.histogram_table(obs.histogram("lat"))
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
    assert obs.histogram("kernel.syscall_cycles").count >= profile.PROFILE_SYSCALLS
    assert obs.histogram("dtu.msg_rtt").count > 0

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
