"""Regression tests: ``pending_events`` accounting around stale handles.

:meth:`Simulator.cancel` promises that cancelling an already-executed
handle is a no-op.  Before the fix, execution never blanked the entry,
so a late cancel incremented ``_cancelled`` against an entry no queue
held any more and ``pending_events`` drifted permanently negative —
one short per stale cancel.  These tests fail on the pre-fix engine.
"""

import pytest

from repro.sim import Simulator
from repro.sim.resources import Signal, WaitTimeout


# -- the engine bug itself ----------------------------------------------------


def test_cancel_after_execution_is_a_noop():
    """The docstring's promise, checked against the accounting: a
    handle whose callback already ran must not disturb the count
    (pre-fix this read -1)."""
    sim = Simulator()
    handle = sim.schedule(5, lambda _: None)
    sim.run()
    assert sim.pending_events == 0
    sim.cancel(handle)
    assert sim.pending_events == 0


def test_late_cancel_does_not_hide_a_live_event():
    """The corruption the drift causes: with one stale cancel absorbed,
    a genuinely queued event used to read as 0 pending."""
    sim = Simulator()
    handle = sim.schedule(5, lambda _: None)
    sim.run()
    sim.cancel(handle)
    sim.schedule(5, lambda _: None)
    assert sim.pending_events == 1


def test_cancel_after_execution_bucket_entry():
    """Same promise for the same-cycle FIFO bucket shape."""
    sim = Simulator()
    handle = sim.call_soon(lambda _: None)
    sim.run()
    sim.cancel(handle)
    assert sim.pending_events == 0


def test_cancel_own_handle_from_inside_callback():
    """A callback cancelling its *own* handle (the retry-timer pattern:
    the timer fires and disarms itself) must be a no-op."""
    sim = Simulator()
    handles = []
    fired = []

    def fire(_):
        fired.append(sim.now)
        sim.cancel(handles[0])

    handles.append(sim.schedule(3, fire))
    sim.run()
    assert fired == [3]
    assert sim.pending_events == 0


def test_double_cancel_counts_once():
    sim = Simulator()
    handle = sim.schedule(5, lambda _: None)
    sim.cancel(handle)
    sim.cancel(handle)
    assert sim.pending_events == 0
    sim.run()
    assert sim.pending_events == 0


def test_cancel_after_bounded_run_executed_entry():
    """``run(until=...)``'s bounded loop must blank entries too."""
    sim = Simulator()
    handle = sim.schedule(5, lambda _: None)
    sim.run(until=10)
    sim.cancel(handle)
    assert sim.pending_events == 0


def test_cancel_after_until_event_run():
    sim = Simulator()
    stop = sim.event("stop")
    handle = sim.schedule(5, lambda _: stop.succeed())
    sim.run(until_event=stop)
    sim.cancel(handle)
    assert sim.pending_events == 0


def test_schedule_at_handles_cancel_exactly():
    """Absolute-cycle scheduling plays by the same rules."""
    sim = Simulator()
    ran = []
    executed = sim.schedule_at(4, ran.append)
    pending = sim.schedule_at(9, ran.append)
    sim.run(until=6)
    sim.cancel(executed)  # stale: already ran
    sim.cancel(pending)   # live: genuinely cancelled
    assert ran == [None]
    assert sim.pending_events == 0
    sim.run()
    assert sim.pending_events == 0


def test_schedule_at_rejects_the_past():
    sim = Simulator()
    sim.schedule(5, lambda _: None)
    sim.run()
    with pytest.raises(ValueError, match="past"):
        sim.schedule_at(3, lambda _: None)


def test_schedule_at_same_cycle_keeps_fifo():
    sim = Simulator()
    seen = []
    sim.call_soon(lambda _: seen.append("first"))
    sim.schedule_at(0, lambda _: seen.append("second"))
    sim.run()
    assert seen == ["first", "second"]


# -- the audited stale-handle users -------------------------------------------


def test_signal_fire_cancels_timeout_exactly():
    """``Signal.wait`` timeouts cancelled after the fire: the cancel
    hits a *pending* timer, and the accounting drains to exactly
    zero."""
    sim = Simulator()
    signal = Signal(sim, "sig")
    waited = signal.wait(timeout=100)
    assert sim.pending_events == 1  # the expiry timer
    sim.schedule(10, lambda _: signal.fire("value"))
    sim.run()
    assert waited.ok and waited.value == "value"
    assert signal.waiting == 0
    assert sim.pending_events == 0
    assert sim.now == 10  # the cancelled timer never dragged the clock


def test_signal_timeout_fires_exactly():
    sim = Simulator()
    signal = Signal(sim, "sig")
    waited = signal.wait(timeout=40)
    sim.run()
    assert waited.triggered and isinstance(waited.value, WaitTimeout)
    assert signal.waiting == 0
    assert sim.pending_events == 0


def test_signal_fire_after_timeout_leaves_count_exact():
    """Fire *after* the timeout already failed the wait: by then the
    waiter is deregistered, so the fire cancels nothing and the books
    stay balanced."""
    sim = Simulator()
    signal = Signal(sim, "sig")
    waited = signal.wait(timeout=40)
    sim.schedule(60, lambda _: signal.fire())
    sim.run()
    assert isinstance(waited.value, WaitTimeout)
    assert sim.pending_events == 0


def test_mixed_waiters_on_one_fire():
    """Several waiters, some bounded, one already expired: one fire
    cancels exactly the live timers."""
    sim = Simulator()
    signal = Signal(sim, "sig")
    expired = signal.wait(timeout=5)
    unbounded = signal.wait()
    bounded = signal.wait(timeout=500)
    sim.schedule(50, lambda _: signal.fire("go"))
    sim.run()
    assert isinstance(expired.value, WaitTimeout)
    assert unbounded.value == "go" and bounded.value == "go"
    assert sim.pending_events == 0
    assert sim.now == 50
