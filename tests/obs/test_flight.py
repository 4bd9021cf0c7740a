"""The flight recorder: recent history read from the log, deterministic dumps."""

import pytest

from repro.obs import Observer, render_dump
from repro.sim import Simulator


def _hub(domain_of=None, **kwargs):
    sim = Simulator()
    obs = Observer.install(sim)
    flight = obs.enable_flight_recorder(**kwargs)
    flight.map_nodes(domain_of or {})
    return sim, obs, flight


def test_rings_are_bounded_per_domain():
    _sim, obs, flight = _hub(capacity=2, domain_of={1: 0, 2: 0, 5: 1})
    for index in range(4):
        obs.instant(f"evt{index}", "test", 1)
    obs.instant("other", "test", 5)
    obs.instant("unmapped", "test", 9)  # -> domain -1
    dump = flight.dump("on demand")
    assert [i.name for i in dump["instants"][0]] == ["evt2", "evt3"]
    assert [i.name for i in dump["instants"][1]] == ["other"]
    assert [i.name for i in dump["instants"][-1]] == ["unmapped"]


def test_dump_includes_spans_counters_and_telemetry_tail():
    sim, obs, flight = _hub(domain_of={3: 0}, epochs=2)
    telemetry = obs.enable_telemetry(epoch=100)
    obs.count("kernel0.ik_retries", 3)
    obs.complete("req", "kv", 3, begin=0, end=40, args={"status": "ok"})
    sim.schedule(350, lambda _: obs.observe("lat", 120))
    sim.run()
    telemetry.flush()
    dump = flight.dump("domain 1 declared dead", domain=1)
    assert dump["reason"] == "domain 1 declared dead"
    assert dump["cycle"] == 350 and dump["domain"] == 1
    assert dump["counters"]["kernel0.ik_retries"] == 3
    assert [s.name for s in dump["spans"][0]] == ["req"]
    # Telemetry tail: last `epochs` closed epochs per series, with
    # quantile series rendered compactly.
    assert dump["telemetry"]["kernel0.ik_retries"] == [(0, 3)]
    assert dump["telemetry"]["lat"] == [(3, "n=1 p99<121")]
    # Dumps are retained and announced as an instant.
    assert flight.dumps[-1] is dump
    assert obs.instants[-1].name == "flight_dump"


def test_render_dump_is_deterministic_and_domain_first():
    def build():
        _sim, obs, flight = _hub(domain_of={1: 0, 5: 1})
        obs.instant("heartbeat_miss", "ik", 1, peer=1)
        obs.instant("peer_dead", "ik", 5, peer=0, reason="heartbeats")
        obs.complete("req", "kv", 1, begin=10, end=25, args={"status": "ok"})
        return render_dump(flight.dump("test verdict", domain=1))

    text = build()
    assert text == build()
    lines = text.splitlines()
    assert lines[0] == "flight dump: test verdict"
    # The verdict's domain renders before the others.
    assert lines.index("  domain 1:") < lines.index("  domain 0:")
    assert any("peer_dead/ik node=5 peer=0 reason=heartbeats" in line
               for line in lines)
    assert any("[       10..       25] req/kv node=1 status=ok" in line
               for line in lines)


def test_render_dump_truncates_ring_tails():
    _sim, obs, flight = _hub(domain_of={1: 0})
    for index in range(30):
        obs.instant(f"evt{index:02d}", "test", 1)
    text = render_dump(flight.dump("on demand"), instant_limit=3)
    assert "evt29" in text and "evt26" not in text


def test_dumps_read_the_log_from_where_the_recorder_attached():
    """Nothing is fed to the recorder: a dump reads the observer's span
    and instant log, leaving out what was logged before it attached."""
    sim = Simulator()
    obs = Observer.install(sim)
    obs.complete("boot", "kernel", 1, begin=0, end=5)
    obs.instant("boot_done", "kernel", 1)
    flight = obs.enable_flight_recorder(capacity=2)
    flight.map_nodes({1: 0})
    for index in range(3):
        obs.complete(f"req{index}", "kv", 1, begin=index, end=index + 1)
    obs.instant("retry", "ik", 1)
    dump = flight.dump("on demand")
    assert [s.name for s in dump["spans"][0]] == ["req1", "req2"]
    assert [i.name for i in dump["instants"][0]] == ["retry"]


def test_a_bounded_log_dumps_what_it_still_holds():
    sim = Simulator()
    obs = Observer.install(sim, span_capacity=3)
    flight = obs.enable_flight_recorder(capacity=8)
    for index in range(5):
        obs.complete(f"s{index}", "kv", 1, begin=index, end=index + 1)
        obs.instant(f"i{index}", "kv", 1)
    dump = flight.dump("on demand")
    assert [s.name for s in dump["spans"][-1]] == ["s2", "s3", "s4"]
    assert [i.name for i in dump["instants"][-1]] == ["i2", "i3", "i4"]


def test_capacity_validation_and_double_enable():
    sim = Simulator()
    obs = Observer.install(sim)
    with pytest.raises(ValueError):
        obs.enable_flight_recorder(capacity=0)
    # epochs=0 used to dump every retained epoch ([-0:] is the whole
    # list), and a negative count silently dropped the oldest ones.
    for epochs in (0, -2):
        with pytest.raises(ValueError, match="epochs must be positive"):
            obs.enable_flight_recorder(epochs=epochs)
    obs.enable_flight_recorder()
    with pytest.raises(RuntimeError):
        obs.enable_flight_recorder()
