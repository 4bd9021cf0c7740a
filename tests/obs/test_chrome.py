"""Chrome trace-event export: structure, determinism, JSON round-trip."""

import json

from repro.obs import Observer, export_chrome_trace, to_chrome_trace, trace_events
from repro.sim import Simulator


def _sample_observer() -> Observer:
    obs = Observer(Simulator())
    obs.record(obs.kinds["noop", "syscall", ("vpe",), (1,)], 0, 10, 250,
               -1, -1, -1)
    obs.record(obs.kinds["message", "noc", (), ()], 2, 15, 40, -1, -1, -1)
    obs.instant("retransmit", "dtu", 2, attempt=1)
    obs.instant("probe", "watchdog")  # no node -> the global pid
    return obs


def test_spans_become_complete_events():
    events = trace_events(_sample_observer())
    spans = [e for e in events if e["ph"] == "X"]
    assert {(s["name"], s["ts"], s["dur"], s["pid"]) for s in spans} == {
        ("noop", 10, 240, 0),
        ("message", 15, 25, 2),
    }
    syscall = next(s for s in spans if s["name"] == "noop")
    assert syscall["tid"] == "syscall"
    assert syscall["args"] == {"vpe": 1}


def test_instants_and_process_metadata():
    events = trace_events(_sample_observer())
    instants = [e for e in events if e["ph"] == "i"]
    assert all(e["s"] == "p" for e in instants)
    probe = next(e for e in instants if e["name"] == "probe")
    assert probe["pid"] == -1  # unattributed -> the global pseudo-process
    names = {
        e["pid"]: e["args"]["name"]
        for e in events if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert names == {-1: "simulator", 0: "PE 0", 2: "PE 2"}


def test_node_labels_and_thread_names_in_metadata():
    obs = _sample_observer()
    obs.label_node(0, "kernel0")
    obs.label_node(2, "app:worker")
    events = trace_events(obs)
    names = {
        e["pid"]: e["args"]["name"]
        for e in events if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert names == {-1: "simulator", 0: "kernel0", 2: "app:worker"}
    threads = {
        (e["pid"], e["tid"])
        for e in events if e["ph"] == "M" and e["name"] == "thread_name"
    }
    # Each category row is named after itself, per process.
    assert (0, "syscall") in threads
    assert (2, "noc") in threads and (2, "dtu") in threads
    assert (-1, "watchdog") in threads
    for event in events:
        if event["ph"] == "M" and event["name"] == "thread_name":
            assert event["args"]["name"] == event["tid"]


def test_events_sorted_by_timestamp():
    events = [e for e in trace_events(_sample_observer()) if e["ph"] != "M"]
    assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)


def test_export_round_trips_json(tmp_path):
    obs = _sample_observer()
    path = tmp_path / "out.trace.json"
    exported = export_chrome_trace(obs, path)
    loaded = json.loads(path.read_text())
    assert loaded == exported == to_chrome_trace(obs)
    assert loaded["metadata"]["clock"] == "simulated-cycles"
    assert loaded["metadata"]["spans_dropped"] == 0
    for event in loaded["traceEvents"]:
        assert "ph" in event and "pid" in event


def test_trace_without_telemetry_has_no_counter_events():
    events = trace_events(_sample_observer())
    assert not any(e["ph"] == "C" for e in events)
    assert not any(e.get("tid") == "telemetry" for e in events)


def test_dropped_counts_surface_in_metadata():
    obs = Observer(Simulator(), span_capacity=1)
    obs.record(obs.kinds["a", "c", (), ()], 0, 0, 1, -1, -1, -1)
    obs.record(obs.kinds["b", "c", (), ()], 0, 1, 2, -1, -1, -1)
    trace = to_chrome_trace(obs)
    assert trace["metadata"]["spans_dropped"] == 1
