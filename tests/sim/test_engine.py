"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Simulator


def test_time_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0


def test_schedule_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(30, lambda _: seen.append("c"))
    sim.schedule(10, lambda _: seen.append("a"))
    sim.schedule(20, lambda _: seen.append("b"))
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 30


def test_same_cycle_callbacks_fifo():
    sim = Simulator()
    seen = []
    for i in range(5):
        sim.schedule(7, lambda _, i=i: seen.append(i))
    sim.run()
    assert seen == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(-1, lambda _: None)
    with pytest.raises(ValueError):
        sim.delay(-5)


def test_run_until_stops_clock_at_limit():
    sim = Simulator()
    sim.schedule(100, lambda _: None)
    sim.run(until=40)
    assert sim.now == 40
    assert sim.pending_events == 1
    sim.run()
    assert sim.now == 100


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=55)
    assert sim.now == 55


def test_call_soon_runs_after_current_callbacks():
    sim = Simulator()
    seen = []

    def first(_):
        seen.append("first")
        sim.call_soon(lambda _: seen.append("soon"))

    sim.schedule(5, first)
    sim.schedule(5, lambda _: seen.append("second"))
    sim.run()
    assert seen == ["first", "second", "soon"]


def test_delay_charges_ledger_tag():
    sim = Simulator()
    sim.delay(25, tag="os")
    sim.delay(10, tag="os")
    sim.delay(7, tag="xfer")
    assert sim.ledger.total("os") == 35
    assert sim.ledger.total("xfer") == 7


def test_delay_without_tag_charges_nothing():
    sim = Simulator()
    sim.delay(25)
    assert sim.ledger.snapshot() == {}


# -- integer-cycle validation --------------------------------------------------


def test_schedule_coerces_integral_float():
    sim = Simulator()
    seen = []
    sim.schedule(3.0, lambda _: seen.append(sim.now))
    sim.run()
    assert seen == [3]
    assert type(sim.now) is int


def test_schedule_rejects_fractional_delay():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.schedule(2.5, lambda _: None)


def test_schedule_rejects_non_numeric_delay():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.schedule("10", lambda _: None)


def test_delay_coerces_integral_float_and_rejects_fractional():
    sim = Simulator()
    sim.delay(4.0, tag="os")
    assert sim.ledger.total("os") == 4
    with pytest.raises(ValueError):
        sim.delay(0.5)
    with pytest.raises(TypeError):
        sim.delay(None)


# -- cancellation --------------------------------------------------------------


def test_cancel_future_event_never_fires():
    sim = Simulator()
    seen = []
    handle = sim.schedule(10, lambda _: seen.append("cancelled"))
    sim.schedule(20, lambda _: seen.append("kept"))
    sim.cancel(handle)
    sim.run()
    assert seen == ["kept"]
    assert sim.pending_events == 0


def test_cancel_same_cycle_callback():
    sim = Simulator()
    seen = []
    handle = sim.call_soon(lambda _: seen.append("cancelled"))
    sim.cancel(handle)
    sim.call_soon(lambda _: seen.append("kept"))
    sim.run()
    assert seen == ["kept"]
    assert sim.pending_events == 0


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(5, lambda _: None)
    sim.cancel(handle)
    sim.cancel(handle)  # second cancel must not corrupt the accounting
    assert sim.pending_events == 0
    sim.run()
    assert sim.now == 0  # a dead entry never drags the clock forward


def test_cancelled_entry_does_not_hold_the_clock():
    """A run whose only remaining work is cancelled entries terminates."""
    sim = Simulator()
    for delay in (3, 7, 11):
        sim.cancel(sim.schedule(delay, lambda _: None))
    sim.run()
    assert sim.pending_events == 0


# -- run(until=...) boundary semantics ----------------------------------------


def test_run_until_fires_events_exactly_at_boundary():
    sim = Simulator()
    seen = []
    sim.schedule(40, lambda _: seen.append("at"))
    sim.schedule(41, lambda _: seen.append("after"))
    sim.run(until=40)
    assert seen == ["at"]
    assert sim.now == 40
    assert sim.pending_events == 1
    sim.run()
    assert seen == ["at", "after"]
    assert sim.now == 41


def test_run_until_clock_lands_on_limit_when_queue_drains_early():
    sim = Simulator()
    sim.schedule(10, lambda _: None)
    sim.run(until=80)
    assert sim.now == 80
    assert sim.pending_events == 0


def test_run_until_same_limit_twice_is_a_no_op():
    sim = Simulator()
    sim.schedule(90, lambda _: None)
    sim.run(until=30)
    sim.run(until=30)
    assert sim.now == 30
    assert sim.pending_events == 1
