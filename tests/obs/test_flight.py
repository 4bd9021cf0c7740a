"""The flight recorder: recent history read from the log, deterministic dumps."""

import re

import pytest

from repro.obs import Observer
from repro.obs.flight import EPOCHS, INSTANT_LIMIT, SERIES_LIMIT, SPAN_LIMIT
from repro.sim import Simulator

_RECORD = re.compile(r"^    (?:@.* ! |\[.*\] )([^/]+)/")


def _hub(domain_of=None):
    sim = Simulator()
    obs = Observer.install(sim)
    flight = obs.enable_flight_recorder()
    flight.map_nodes(domain_of or {})
    return sim, obs, flight


def _records(text: str) -> dict[int, list[str]]:
    """Per domain, in the order printed, the names of a dump's instants
    and spans."""
    records, domain = {}, None
    for line in text.splitlines():
        heading = re.fullmatch(r"  domain (-?\d+):", line)
        if heading:
            domain = int(heading.group(1))
            records[domain] = []
        elif _RECORD.match(line):
            records[domain].append(_RECORD.match(line).group(1))
    return records


def _series(text: str) -> dict[str, str]:
    """A dump's telemetry lines: series name -> its points as printed."""
    _, _, tail = text.partition("  telemetry (")
    return dict(line.strip().split(": ", 1)
                for line in tail.splitlines()[1:])


def test_rings_are_bounded_per_domain():
    _sim, obs, flight = _hub(domain_of={1: 0, 2: 0, 5: 1})
    for index in range(INSTANT_LIMIT + 2):
        obs.instant(f"evt{index}", "test", 1)
    for index in range(SPAN_LIMIT + 2):
        obs.complete(f"req{index}", "kv", 2, begin=index, end=index + 1)
    obs.instant("other", "test", 5)
    obs.instant("unmapped", "test", 9)  # -> domain -1
    records = _records(flight.dump("on demand"))
    assert records[0] == (
        [f"evt{index}" for index in range(2, INSTANT_LIMIT + 2)]
        + [f"req{index}" for index in range(2, SPAN_LIMIT + 2)])
    assert records[1] == ["other"]
    assert records[-1] == ["unmapped"]


def test_dump_includes_spans_and_telemetry_tail():
    sim, obs, flight = _hub(domain_of={3: 0})
    telemetry = obs.enable_telemetry(epoch=100)
    for _ in range(3):
        obs.count("kernel0.ik_retries")
    obs.complete("req", "kv", 3, begin=0, end=40, args={"status": "ok"})
    sim.schedule(350, lambda _: obs.observe("lat", 120))
    sim.run()
    telemetry.flush()
    text = flight.dump("domain 1 declared dead", domain=1)
    lines = text.splitlines()
    assert lines[:2] == ["flight dump: domain 1 declared dead",
                         "  at cycle 350, domain 1"]
    assert _records(text) == {0: ["req"]}
    # Telemetry tail: the last closed epochs per series, with quantile
    # series written compactly.
    assert "  telemetry (epoch=100 cycles):" in lines
    assert _series(text) == {"kernel0.ik_retries": "0:3",
                             "lat": "3:n=1 p99<121"}
    # Dumps are retained and announced as an instant.
    assert flight.dumps[-1] is text
    assert obs.instants[-1].name == "flight_dump"


def test_the_telemetry_tail_is_the_first_series_and_their_last_epochs():
    sim, obs, flight = _hub()
    telemetry = obs.enable_telemetry(epoch=10)
    for cycle in range(EPOCHS + 2):
        for series in range(SERIES_LIMIT + 1):
            sim.schedule(cycle * 10, lambda _, s=series: obs.count(f"s{s}"))
    sim.run()
    telemetry.flush()
    last = ", ".join(f"{index}:1" for index in range(2, EPOCHS + 2))
    assert _series(flight.dump("on demand")) == {
        f"s{series}": last for series in range(SERIES_LIMIT)}


def test_dump_is_deterministic_and_domain_first():
    def build():
        _sim, obs, flight = _hub(domain_of={1: 0, 5: 1})
        obs.instant("heartbeat_miss", "ik", 1, peer=1)
        obs.instant("peer_dead", "ik", 5, peer=0, reason="heartbeats")
        obs.complete("req", "kv", 1, begin=10, end=25, args={"status": "ok"})
        return flight.dump("test verdict", domain=1)

    text = build()
    assert text == build()
    lines = text.splitlines()
    assert lines[0] == "flight dump: test verdict"
    # The verdict's domain prints before the others.
    assert lines.index("  domain 1:") < lines.index("  domain 0:")
    assert any("peer_dead/ik node=5 peer=0 reason=heartbeats" in line
               for line in lines)
    assert any("[       10..       25] req/kv node=1 status=ok" in line
               for line in lines)


def test_dump_truncates_ring_tails():
    _sim, obs, flight = _hub(domain_of={1: 0})
    for index in range(30):
        obs.instant(f"evt{index:02d}", "test", 1)
    text = flight.dump("on demand")
    assert f"evt{30 - INSTANT_LIMIT}" in text
    assert f"evt{29 - INSTANT_LIMIT}" not in text


def test_dumps_read_the_log_from_where_the_recorder_attached():
    """Nothing is fed to the recorder: a dump reads the observer's span
    and instant log, leaving out what was logged before it attached."""
    sim = Simulator()
    obs = Observer.install(sim)
    obs.complete("boot", "kernel", 1, begin=0, end=5)
    obs.instant("boot_done", "kernel", 1)
    flight = obs.enable_flight_recorder()
    flight.map_nodes({1: 0})
    for index in range(3):
        obs.complete(f"req{index}", "kv", 1, begin=index, end=index + 1)
    obs.instant("retry", "ik", 1)
    assert _records(flight.dump("on demand")) == {
        0: ["retry", "req0", "req1", "req2"]}


def test_a_bounded_log_dumps_what_it_still_holds():
    sim = Simulator()
    obs = Observer.install(sim, span_capacity=3)
    flight = obs.enable_flight_recorder()
    for index in range(5):
        obs.complete(f"s{index}", "kv", 1, begin=index, end=index + 1)
        obs.instant(f"i{index}", "kv", 1)
    assert _records(flight.dump("on demand")) == {
        -1: ["i2", "i3", "i4", "s2", "s3", "s4"]}


def test_double_enable_is_refused():
    sim = Simulator()
    obs = Observer.install(sim)
    obs.enable_flight_recorder()
    with pytest.raises(RuntimeError):
        obs.enable_flight_recorder()
