"""Profile benchmark: the observability subsystem on a Figure-3 micro run.

Acceptance checks for the profiling pipeline:
- the Chrome trace round-trips through ``json.loads`` and its events
  carry ``ph``/``ts``/``pid``,
- the report has syscall-latency and message-RTT histograms,
- link utilisation is exact (no value above 100%),
- report and trace are the committed bytes.
"""

import json

from repro.eval import profile, runall


def test_profile(benchmark):
    system = benchmark.pedantic(profile.run, rounds=1, iterations=1)
    obs = system.sim.obs

    # Key histograms exist and saw the expected traffic.
    assert obs.histogram("kernel.syscall_cycles").count >= profile.PROFILE_SYSCALLS
    assert obs.histogram("m3.syscall_rtt").count >= profile.PROFILE_SYSCALLS
    assert obs.histogram("dtu.msg_rtt").count > 0
    assert obs.histogram("m3fs.request_cycles").count > 0

    # Exact utilisation: never above 1.0, and the DRAM path was busy.
    report = system.platform.network.utilization_report()
    assert report and all(0.0 <= u <= 1.0 for u in report.values())

    files = profile.files(system)
    text = files[profile.REPORT_FILE]
    assert "kernel.syscall_cycles" in text
    assert "dtu.msg_rtt" in text
    assert "utilisation" in text
    for filename, contents in files.items():
        assert contents == (runall.RESULTS_DIR / filename).read_text()

    trace = json.loads(files[profile.TRACE_FILE])
    events = trace["traceEvents"]
    assert events
    for event in events:
        assert "ph" in event and "pid" in event
        assert "ts" in event or event["ph"] == "M"
    assert any(e["ph"] == "X" for e in events)
    assert trace["metadata"]["clock"] == "simulated-cycles"
