"""Prometheus text exposition of the Observer's metrics."""

from repro.obs import Observer, render_prometheus
from repro.obs.prom import metric_name
from repro.sim import Simulator


def test_metric_name_sanitization():
    assert metric_name("kv.kv0.requests") == "kv_kv0_requests"
    assert metric_name("noc.packets-dropped") == "noc_packets_dropped"
    assert metric_name("9lives") == "_9lives"
    assert metric_name("") == "_"


def test_exposition_shape_and_determinism():
    def build():
        obs = Observer.install(Simulator())
        obs.count("kv.kv0.requests", 7)
        obs.count("autoscale.scale_ups")
        obs.observe("kv.request_cycles", 100)
        obs.observe("kv.request_cycles", 5000)
        return render_prometheus(obs)

    text = build()
    assert text == build()
    assert text.endswith("\n")
    lines = text.splitlines()
    # Counters first, sorted.
    assert lines[0] == "# TYPE autoscale_scale_ups counter"
    assert lines[1] == "autoscale_scale_ups 1"
    assert "kv_kv0_requests 7" in lines
    assert not any("gauge" in line for line in lines)
    # Histogram: cumulative buckets, +Inf, sum, count.
    assert 'kv_request_cycles_bucket{le="128"} 1' in lines
    assert 'kv_request_cycles_bucket{le="8192"} 2' in lines
    assert 'kv_request_cycles_bucket{le="+Inf"} 2' in lines
    assert "kv_request_cycles_sum 5100" in lines
    assert "kv_request_cycles_count 2" in lines


def test_empty_observer_renders_empty_page():
    assert render_prometheus(Observer.install(Simulator())) == "\n"
