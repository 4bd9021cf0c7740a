"""The telemetry plane: epoch bucketing, retention, forwarding."""

import pytest

from repro.obs import Observer
from repro.obs.timeseries import Telemetry
from repro.sim import Simulator


def _hub(epoch=100, **kwargs):
    sim = Simulator()
    obs = Observer.install(sim)
    return sim, obs, obs.enable_telemetry(epoch=epoch, **kwargs)


def test_counters_sum_within_their_epoch():
    sim, obs, telemetry = _hub()
    sim.schedule(10, lambda _: obs.count("req"))
    sim.schedule(20, lambda _: obs.count("req", 2))
    sim.schedule(150, lambda _: obs.count("req"))
    sim.schedule(320, lambda _: obs.count("req", 5))
    sim.run()
    telemetry.flush()
    assert telemetry.points("req") == [(0, 3), (1, 1), (3, 5)]
    assert telemetry.end_cycle(0) == 100
    # The cumulative counter is untouched by the epoch plane.
    assert obs.counters["req"] == 9


def test_gauges_last_write_wins_and_quantiles_per_epoch():
    sim, obs, telemetry = _hub()
    sim.schedule(10, lambda _: telemetry.gauge("depth", 4))
    sim.schedule(90, lambda _: telemetry.gauge("depth", 7))
    sim.schedule(110, lambda _: obs.observe("lat", 30))
    sim.schedule(120, lambda _: obs.observe("lat", 50))
    sim.schedule(210, lambda _: obs.observe("lat", 9000))
    sim.run()
    telemetry.flush()
    assert telemetry.points("depth") == [(0, 7)]
    (first, second) = telemetry.points("lat")
    assert first[0] == 1 and first[1].count == 2 and first[1].max == 50
    assert second[0] == 2 and second[1].count == 1
    assert second[1].percentile(0.99) == 9024  # precision=7 default


def test_series_kind_conflict_raises():
    _sim, obs, telemetry = _hub()
    obs.count("x")
    telemetry.flush()
    telemetry.gauge("x", 1)
    with pytest.raises(ValueError, match="is a counter"):
        telemetry.flush()


def test_flush_is_idempotent_and_refolds_partial_epochs():
    sim, obs, telemetry = _hub()
    sim.schedule(10, lambda _: obs.count("req", 2))
    sim.run()
    telemetry.flush()
    telemetry.flush()
    assert telemetry.points("req") == [(0, 2)]
    obs.count("req", 3)  # lands in the same (re-opened) epoch 0
    telemetry.flush()
    assert telemetry.points("req") == [(0, 5)]


def test_retention_ring_drops_oldest_epochs():
    sim, obs, telemetry = _hub(retention=2)
    for cycle in (10, 110, 210, 310):
        sim.schedule(cycle, lambda _: obs.count("req"))
    sim.run()
    telemetry.flush()
    assert telemetry.points("req") == [(2, 1), (3, 1)]
    assert telemetry.dropped_epochs == {"req": 2}


def test_samplers_polled_at_epoch_close():
    sim, _obs, telemetry = _hub()
    depth = {"value": 5}
    telemetry.add_sampler(lambda: (("kv.kv0.depth", depth["value"]),))
    sim.schedule(150, lambda _: depth.__setitem__("value", 9))
    sim.schedule(150, lambda _: telemetry.advance())
    sim.schedule(250, lambda _: telemetry.advance())
    sim.run()
    # Epoch 0 closed at cycle 150 (lazy): it sampled the value as of
    # the close, deterministically.
    assert telemetry.points("kv.kv0.depth") == [(0, 9), (1, 9)]


def test_a_close_hook_that_records_runs_once_per_epoch():
    """A hook may count (``slo.alerts_fired`` is the natural one): that
    re-enters ``advance`` while epochs are closing, which used to close
    the same epoch again until the stack ran out."""
    sim, obs, telemetry = _hub()
    closed = []

    def hook(index, end_cycle):
        closed.append((index, end_cycle))
        obs.count("hook.ran")

    telemetry.on_epoch_close.append(hook)
    sim.schedule(0, lambda _: obs.count("req"))
    sim.schedule(250, lambda _: obs.count("req", 4))
    sim.run()
    # Epochs 0 and 1 closed at cycle 250, each exactly once ...
    assert closed == [(0, 100), (1, 200)]
    # ... with what they had recorded, and nothing of the hook's ...
    assert telemetry.points("req") == [(0, 1)]
    assert telemetry.points("hook.ran") == []
    telemetry.flush()
    assert closed[2:] == [(2, 300)]
    # ... which landed in the epoch it ran in: the one containing 250.
    assert telemetry.points("req") == [(0, 1), (2, 4)]
    assert telemetry.points("hook.ran") == [(2, 2)]
    assert obs.counters["hook.ran"] == 3


def test_a_recording_hook_survives_a_long_idle_gap():
    """Re-entry is a no-op, not one nested close per ended epoch: the
    stack stays flat however many epochs a quiet stretch ends at once."""
    sim, obs, telemetry = _hub()
    telemetry.on_epoch_close.append(lambda index, end: obs.count("hook.ran"))
    sim.schedule(0, lambda _: obs.count("req"))
    sim.schedule(500_000, lambda _: obs.count("req"))
    sim.run()
    assert obs.counters["hook.ran"] == 5_000
    telemetry.flush()
    assert telemetry.points("hook.ran") == [(5_000, 5_000)]


def test_a_sampler_that_records_does_not_reclose_its_epoch():
    sim, obs, telemetry = _hub()

    def sampler():
        obs.count("sampler.polls")
        return (("depth", 1),)

    telemetry.add_sampler(sampler)
    sim.schedule(10, lambda _: obs.count("req"))
    sim.schedule(120, lambda _: obs.count("req"))
    sim.run()
    assert telemetry.points("depth") == [(0, 1)]
    assert telemetry.points("req") == [(0, 1)]
    assert obs.counters["sampler.polls"] == 1


def test_watch_threshold_counts_exact_over_events():
    _sim, obs, telemetry = _hub()
    over = telemetry.watch_threshold("lat", 100)
    assert over == "lat.over_100"
    for value in (40, 100, 101, 5000):
        obs.observe("lat", value)
    telemetry.flush()
    assert telemetry.points(over) == [(0, 2)]  # 101 and 5000; 100 is ok


def test_window_sum_and_value_at():
    _sim, _obs, telemetry = _hub()
    for index, value in ((0, 2), (1, 3), (3, 5)):
        telemetry._fold("req", "counter", index, value)
    assert telemetry.window_sum("req", 3, 4) == 10
    assert telemetry.window_sum("req", 3, 2) == 5  # epochs 2..3
    assert telemetry.value_at("req", 1) == 3
    assert telemetry.value_at("req", 2) == 0


def test_observer_without_telemetry_keeps_plain_metrics():
    sim = Simulator()
    obs = Observer.install(sim)
    assert obs.telemetry is None
    obs.count("a")
    obs.observe("h", 10)
    assert obs.counters == {"a": 1}
    with pytest.raises(RuntimeError):
        obs.enable_telemetry()
        obs.enable_telemetry()


# -- buffered samples: folded at epoch close and on read ----------------------


def test_over_threshold_counts_from_buffered_samples_are_exact():
    sim, obs, telemetry = _hub()
    over = telemetry.watch_threshold("lat", 100)
    samples = {  # cycle -> values observed at it
        10: (40, 100, 101), 90: (5000, 101), 150: (7,), 260: (101, 101, 99),
    }
    for cycle, values in samples.items():
        for value in values:
            sim.schedule(cycle, lambda _, value=value: obs.observe("lat", value))
    sim.run()
    telemetry.flush()
    expected = {}
    for cycle, values in samples.items():
        bad = sum(1 for value in values if value > 100)
        if bad:
            expected[cycle // 100] = expected.get(cycle // 100, 0) + bad
    assert dict(telemetry.points(over)) == expected == {0: 3, 2: 2}
    # The per-epoch histograms got every sample, in its own epoch.
    assert [(index, hist.count, hist.max)
            for index, hist in telemetry.points("lat")] == \
        [(0, 5, 5000), (1, 1, 7), (2, 3, 101)]
    # So did the run histogram, read at any time.
    assert obs.histogram("lat").count == 9
    assert obs.histogram("lat").total == sum(map(sum, samples.values()))


def test_a_sample_after_a_flush_lands_in_the_reopened_epoch():
    sim, obs, telemetry = _hub()
    over = telemetry.watch_threshold("lat", 100)
    sim.schedule(10, lambda _: obs.observe("lat", 500))
    sim.run()
    telemetry.flush()
    obs.observe("lat", 700)  # still cycle 10: epoch 0, re-opened
    assert obs.histograms["lat"].count == 2  # a read folds the buffer ...
    telemetry.flush()  # ... into the open epoch too, not past it
    ((index, hist),) = telemetry.points("lat")
    assert (index, hist.count, hist.min, hist.max) == (0, 2, 500, 700)
    assert telemetry.points(over) == [(0, 2)]
    with pytest.raises(ValueError):
        obs.observe("lat", -1)
    assert obs.histogram("lat").count == 2
