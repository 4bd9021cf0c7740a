"""The Observer hub: spans, metrics, capacity, and link occupancy on
the telemetry plane's epochs."""

import pytest

from repro.noc import Link, MeshTopology, Network, Packet
from repro.obs import Observer
from repro.obs.timeseries import LinkOccupancy
from repro.sim import Simulator


def test_install_hooks_sim_obs_once():
    sim = Simulator()
    assert sim.obs is None
    observer = Observer.install(sim)
    assert sim.obs is observer
    with pytest.raises(RuntimeError):
        Observer.install(sim)


def test_begin_end_span_with_merged_args():
    sim = Simulator()
    obs = Observer.install(sim)
    span_id = obs.begin("switch", "ctxsw", node=2, vpe=7)
    sim.schedule(100, lambda _: obs.end(span_id, outcome="ok"))
    sim.run()
    (span,) = obs.spans
    assert span.name == "switch" and span.category == "ctxsw"
    assert span.node == 2
    assert (span.begin, span.end) == (0, 100)
    assert span.args == {"vpe": 7, "outcome": "ok"}


def test_end_of_unknown_or_already_ended_span_raises_value_error():
    obs = Observer(Simulator())
    span_id = obs.begin("switch", "ctxsw", node=0)
    obs.end(span_id)
    # A double end (or a junk id) used to surface as a bare KeyError;
    # it is a usage error and says so.
    with pytest.raises(ValueError, match="is not open"):
        obs.end(span_id)
    with pytest.raises(ValueError, match="is not open"):
        obs.end(12345)


def test_record_stores_a_span_after_the_fact():
    sim = Simulator()
    obs = Observer.install(sim)
    kind = obs.kinds["pkt", "noc", (), ()]
    sim.schedule(50, lambda _: obs.record(kind, 1, 10, 40, -1, -1, -1))
    sim.run()
    (span,) = obs.spans
    assert (span.begin, span.end) == (10, 40)


def test_counters_and_histograms():
    obs = Observer(Simulator())
    for _ in range(5):
        obs.count("a")
    obs.observe("lat", 100)
    obs.observe("lat", 200)
    assert obs.counters == {"a": 5}
    assert obs.histograms["lat"].count == 2
    assert "missing" not in obs.histograms  # only what was observed


def test_span_capacity_rings_and_counts_drops():
    obs = Observer(Simulator(), span_capacity=2)
    for index in range(5):
        obs.record(obs.kinds[f"s{index}", "cat", (), ()], -1, index,
                   index + 1, -1, -1, -1)
        obs.instant(f"i{index}", "cat")
    assert [s.name for s in obs.spans] == ["s3", "s4"]
    assert obs.spans_dropped == 3
    assert [i.name for i in obs.instants] == ["i3", "i4"]
    assert obs.instants_dropped == 3
    with pytest.raises(ValueError):
        Observer(Simulator(), span_capacity=0)


def test_network_iter_links_is_public():
    sim = Simulator()
    network = Network(sim, MeshTopology(2, 1), hop_cycles=1, bytes_per_cycle=1)
    links = dict(network.iter_links())
    # Every mesh edge plus the per-node loopbacks, keyed (src, dst).
    assert (0, 1) in links and (1, 0) in links
    assert (0, 0) in links and (1, 1) in links
    for (source, _destination), link in links.items():
        assert link.source == source


def test_spans_with_equal_args_share_one_read_only_mapping():
    sim = Simulator()
    obs = Observer.install(sim)
    network = Network(sim, MeshTopology(2, 1))
    network.attach(0, lambda packet: None)
    network.attach(1, lambda packet: None)
    for size in (64, 64, 8):
        network.send(Packet(0, 1, "msg", size))
    first, second, third = (s for s in obs.spans if s.category == "noc")
    assert first.args == {"destination": 1, "bytes": 64, "verdict": "deliver"}
    assert list(first.args) == ["destination", "bytes", "verdict"]
    assert second.args is first.args
    assert third.args is not first.args and third.args["bytes"] == 8
    # ``kinds`` interns by content: equal values under equal names are
    # the same mapping, under another span name too; same values under
    # other names are not.
    values = tuple(first.args.values())
    obs.record(obs.kinds["pkt", "test", tuple(first.args), values],
               0, 0, 1, -1, -1, -1)
    assert obs.spans[-1].args is first.args
    renamed = ("node", "size", "fate")
    obs.record(obs.kinds["pkt", "test", renamed, values], 0, 0, 1, -1, -1, -1)
    other = obs.spans[-1].args
    assert other == dict(zip(renamed, values)) and other is not first.args
    obs.record(obs.kinds["pkt", "test", renamed, values], 0, 1, 2, -1, -1, -1)
    assert obs.spans[-1].args is other
    # ``end`` merges into a copy, never into the mapping a begin stored.
    span_id = obs.begin("op", "test", 0, **first.args)
    assert obs.end(span_id, status="ok") == span_id
    assert obs.spans[-1].args["status"] == "ok"
    assert "status" not in first.args


def _link_telemetry(sim, network):
    """Telemetry of 100-cycle epochs with ``network``'s link series."""
    telemetry = Observer.install(sim).enable_telemetry(epoch=100)
    telemetry.add_sampler(LinkOccupancy(network))
    return telemetry


def _link_series(telemetry, source=0, destination=1):
    """One link's ``(epoch end, busy fraction)`` points; a flushed last
    epoch ends at the current cycle."""
    now = telemetry.sim.now
    points = telemetry.points(f"noc.link.{source}->{destination}")
    return [(min(telemetry.end_cycle(index), now), fraction)
            for index, fraction in points]


def test_link_epoch_sampling_is_lazy_and_flushable():
    sim = Simulator()
    network = Network(sim, MeshTopology(2, 1), hop_cycles=1, bytes_per_cycle=1)
    network.attach(0, lambda packet: None)
    network.attach(1, lambda packet: None)
    telemetry = _link_telemetry(sim, network)

    def traffic():
        for pause in (0, 300):
            yield sim.delay(pause)
            completion = network.send(Packet(0, 1, "msg", 34))  # 50 wire B
            yield sim.delay(completion - sim.now)

    sim.run_process(traffic(), "traffic")
    sim.run()
    # The second send (cycle ~351) folded the completed epochs in.
    series = _link_series(telemetry)
    assert series and all(end % 100 == 0 for end, _f in series)
    assert all(0.0 < fraction <= 1.0 for _end, fraction in series)
    before = len(series)
    telemetry.flush()
    # The trailing partial epoch (the second transfer) is flushed on
    # demand for end-of-run reports.
    assert len(_link_series(telemetry)) > before
    assert _link_series(telemetry)[-1][0] == sim.now


def _two_transfers(then=()):
    """The scenario above (one transfer at cycle 0, one at ~351), then
    more transfers after the given extra delays."""
    sim = Simulator()
    network = Network(sim, MeshTopology(2, 1), hop_cycles=1, bytes_per_cycle=1)
    network.attach(0, lambda packet: None)
    network.attach(1, lambda packet: None)
    telemetry = _link_telemetry(sim, network)

    def traffic(delays):
        for delay in delays:
            yield sim.delay(delay)
            completion = network.send(Packet(0, 1, "msg", 34))  # 50 wire B
            yield sim.delay(completion - sim.now)

    def run(delays):
        sim.run_process(traffic(delays), "traffic")
        sim.run()

    run((0, 300))
    return sim, telemetry, network, run


def _busy_cycles(series, epoch=100):
    """Busy cycles a link's occupancy series adds up to: each point is
    the busy fraction of the stretch since the last epoch boundary."""
    total = 0.0
    for end, fraction in series:
        total += fraction * (end - (end - 1) // epoch * epoch)
    return round(total, 6)


def test_a_forced_link_flush_is_idempotent():
    sim, telemetry, _network, _run = _two_transfers()
    assert sim.now == 402
    telemetry.flush()
    flushed = _link_series(telemetry)
    assert flushed == [(100, 0.5), (400, 0.48), (402, 1.0)]
    telemetry.flush()
    # A second flush at the same cycle used to append (402, 1.0) again.
    assert _link_series(telemetry) == flushed


def test_traffic_after_a_forced_flush_is_not_counted_twice():
    sim, telemetry, network, run = _two_transfers()
    link = network.link(0, 1)
    telemetry.flush()
    run((20,))  # cycles 422..473: still the epoch that was flushed
    telemetry.flush()
    # The later flush replaces the earlier one's point ...
    assert _link_series(telemetry) == [(100, 0.5), (400, 0.48), (473, 52 / 73)]
    run((150,))  # cycles 623..674
    telemetry.flush()
    # ... and so does the close of [400, 500): it used to be appended
    # after the flushed point, which counted cycles 400..402 twice.
    series = _link_series(telemetry)
    assert [end for end, _fraction in series] == [100, 400, 500, 674]
    assert _busy_cycles(series) == link.busy_within(sim.now) == link.busy_cycles


def test_an_observer_without_telemetry_reads_no_link(monkeypatch):
    """Only the telemetry plane has epochs: an observed ``Network.send``
    with none enabled folds nothing (an observer of its own used to
    read every link at its first packet and every 10,000 cycles)."""
    asked = []
    busy_within = Link.busy_within
    monkeypatch.setattr(
        Link, "busy_within",
        lambda link, t: asked.append(t) or busy_within(link, t))
    sim = Simulator()
    Observer.install(sim)
    network = Network(sim, MeshTopology(2, 1), hop_cycles=1, bytes_per_cycle=1)
    network.attach(0, lambda packet: None)
    network.attach(1, lambda packet: None)

    def traffic():
        for _ in range(5):
            completion = network.send(Packet(0, 1, "msg", 34))
            yield sim.delay(completion - sim.now + 10_000)

    sim.run_process(traffic(), "traffic")
    assert sim.now > 50_000
    assert network.link(0, 1).packets == 5
    assert asked == []
