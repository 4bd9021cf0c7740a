"""SLO specs and multi-window burn-rate alerting."""

import pytest

from repro.obs import Observer, SloMonitor, SloSpec, last_alert_before
from repro.sim import Simulator

#: one aggressive rule so tests breach quickly: short window 1 epoch,
#: long window 2 epochs, both must burn at 2x budget pace.
FAST = (("page", 1, 2, 2.0),)


def _hub(epoch=100):
    sim = Simulator()
    obs = Observer.install(sim)
    return sim, obs, obs.enable_telemetry(epoch=epoch)


def _close_to(sim, telemetry, cycle):
    """Move the clock to ``cycle`` and close the epochs that ended."""
    sim.run(until=cycle)
    telemetry.advance()


def test_spec_validation():
    with pytest.raises(ValueError, match="target"):
        SloSpec("bad", target=1.0, series="lat", threshold=10)
    with pytest.raises(ValueError, match="not both"):
        SloSpec("bad", target=0.9)
    with pytest.raises(ValueError, match="not both"):
        SloSpec("bad", target=0.9, series="lat",
                bad_series="b", total_series="t")
    latency = SloSpec("lat", target=0.99, series="lat", threshold=500)
    assert latency.kind == "latency"
    assert "99.00%" in latency.describe()
    avail = SloSpec("ok", target=0.999, bad_series="drops",
                    total_series="sent")
    assert avail.kind == "availability"


def test_latency_slo_burns_fires_and_resolves():
    sim, obs, telemetry = _hub()
    spec = SloSpec("kv-latency", target=0.9, series="lat", threshold=100)
    monitor = SloMonitor(obs, spec, windows=FAST)
    # Epoch 0: 10 samples, 5 over threshold -> bad fraction 0.5, budget
    # 0.1 -> burn 5.0 on both windows -> page fires.
    for value in (10, 10, 10, 10, 10, 200, 200, 200, 200, 200):
        obs.observe("lat", value)
    _close_to(sim, telemetry, 100)
    (alert,) = monitor.alerts
    assert alert[:3] == (100, "page", "fire")
    assert alert[3] == pytest.approx(5.0) and alert[4] == pytest.approx(5.0)
    assert monitor.breached
    assert [i.name for i in obs.instants] == ["slo_page"]
    # Epoch 1: all good.  Short-window burn drops to 0; the long
    # window still carries epoch 0, but the rule needs both.
    for _ in range(10):
        obs.observe("lat", 10)
    _close_to(sim, telemetry, 200)
    assert monitor.alerts[-1][:3] == (200, "page", "resolve")
    assert monitor.verdict()["bad"] == 5
    assert monitor.verdict()["total"] == 20
    assert monitor.verdict()["alerts"] == 1
    assert monitor.timeline[0][:4] == (0, 100, 5, 10)
    assert monitor.timeline[0][5] == ("page",)


def test_availability_slo_and_empty_windows_do_not_burn():
    sim, obs, telemetry = _hub()
    spec = SloSpec("delivery", target=0.99, bad_series="net.drops",
                   total_series="net.sent")
    monitor = SloMonitor(obs, spec, windows=FAST)
    _close_to(sim, telemetry, 100)  # empty epoch: no traffic, no burn
    assert monitor.timeline[0][4]["page"] == (0.0, 0.0)
    for _ in range(100):
        obs.count("net.sent")
    for _ in range(4):
        obs.count("net.drops")
    _close_to(sim, telemetry, 200)
    # bad fraction 0.04 / budget 0.01 = burn 4.0 >= 2.0 on both.
    assert monitor.alerts[0][:3] == (200, "page", "fire")
    assert monitor.breached


def test_slow_burn_needs_the_long_window_too():
    sim, obs, telemetry = _hub()
    spec = SloSpec("lat", target=0.9, series="lat", threshold=100)
    monitor = SloMonitor(obs, spec, windows=(("page", 1, 3, 2.0),))
    # A bad epoch after enough good history: the short window spikes
    # but the 3-epoch window stays below the factor, so no page.
    for _ in range(20):
        obs.observe("lat", 10)
    _close_to(sim, telemetry, 100)
    for _ in range(20):
        obs.observe("lat", 10)
    _close_to(sim, telemetry, 200)
    for _ in range(10):
        obs.observe("lat", 200)
    obs.observe("lat", 10)
    _close_to(sim, telemetry, 300)
    # long window over epochs 0..2: 10 bad / 51 total = 0.196 -> burn
    # 1.96 < 2.0, even though the short-window burn is 9.1.
    assert monitor.alerts == []
    assert not monitor.breached
    assert monitor.timeline[-1][4]["page"][0] > 2.0


def test_last_alert_before():
    sim, obs, telemetry = _hub()
    spec = SloSpec("lat", target=0.9, series="lat", threshold=100)
    monitor = SloMonitor(obs, spec, windows=FAST)
    for _ in range(10):
        obs.observe("lat", 500)
    _close_to(sim, telemetry, 100)
    assert last_alert_before(obs, 100) == (100, "lat", "page")
    assert last_alert_before(obs, 99) is None
    assert monitor.alerts[-1][:3] == (100, "page", "fire")


def test_monitor_requires_telemetry():
    obs = Observer.install(Simulator())
    with pytest.raises(RuntimeError, match="telemetry"):
        SloMonitor(obs, SloSpec("x", target=0.9, series="lat",
                                threshold=1))
