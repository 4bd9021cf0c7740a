"""Unit tests for mailboxes, semaphores and signals."""

import pytest

from repro.sim import Mailbox, Signal, Simulator
from repro.sim.resources import WaitTimeout


def test_mailbox_get_before_put_blocks():
    sim = Simulator()
    box = Mailbox(sim)

    def consumer():
        item = yield box.get()
        return (sim.now, item)

    def producer():
        yield 20
        box.put("x")

    sim.process(producer(), "producer")
    assert sim.run_process(consumer(), "consumer") == (20, "x")


def test_mailbox_preserves_fifo_order():
    sim = Simulator()
    box = Mailbox(sim)
    box.put(1)
    box.put(2)
    box.put(3)

    def consumer():
        items = []
        for _ in range(3):
            items.append((yield box.get()))
        return items

    assert sim.run_process(consumer()) == [1, 2, 3]
    assert len(box) == 0


def test_mailbox_multiple_waiters_fifo():
    sim = Simulator()
    box = Mailbox(sim)
    results = []

    def consumer(tag):
        item = yield box.get()
        results.append((tag, item))

    sim.process(consumer("a"), "a")
    sim.process(consumer("b"), "b")

    def producer():
        yield 5
        box.put(1)
        box.put(2)

    sim.process(producer(), "p")
    sim.run()
    assert results == [("a", 1), ("b", 2)]


def test_signal_wakes_all_current_waiters():
    sim = Simulator()
    sig = Signal(sim)
    woken = []

    def waiter(tag):
        value = yield sig.wait()
        woken.append((tag, value, sim.now))

    sim.process(waiter("a"), "a")
    sim.process(waiter("b"), "b")

    def firer():
        yield 33
        sig.fire("go")

    sim.process(firer(), "f")
    sim.run()
    assert sorted(woken) == [("a", "go", 33), ("b", "go", 33)]
    assert sig.waiting == 0


def test_signal_is_rearmable():
    sim = Simulator()
    sig = Signal(sim)
    hits = []

    def waiter():
        for _ in range(3):
            yield sig.wait()
            hits.append(sim.now)

    def firer():
        for t in (10, 20, 30):
            yield 10
            sig.fire()

    sim.process(waiter(), "w")
    sim.process(firer(), "f")
    sim.run()
    assert hits == [10, 20, 30]


def test_signal_fire_wins_same_cycle_race():
    """fire() and a wait's timeout expiring on the same cycle, fire
    scheduled first: the waiter wakes normally and the late expiry
    callback must not corrupt the waiter list."""
    sim = Simulator()
    sig = Signal(sim)
    outcome = []

    sim.schedule(50, lambda _: sig.fire("go"))  # queued before expire

    def waiter():
        try:
            value = yield sig.wait(timeout=50)
            outcome.append(("woken", value, sim.now))
        except WaitTimeout:
            outcome.append(("timeout", sim.now))

    sim.process(waiter(), "w")
    sim.run()  # drains the queue, running the no-op expiry too
    assert outcome == [("woken", "go", 50)]
    assert sig.waiting == 0


def test_signal_timeout_wins_same_cycle_race():
    """The mirror ordering: the expiry callback runs first, the fire on
    the same cycle second.  The waiter times out, the fire wakes nobody,
    and the signal stays usable afterwards."""
    sim = Simulator()
    sig = Signal(sim)
    outcome = []

    def waiter():
        try:
            value = yield sig.wait(timeout=50)
            outcome.append(("woken", value, sim.now))
        except WaitTimeout:
            outcome.append(("timeout", sim.now))

    sim.process(waiter(), "w")  # starts at t=0, queues expire for t=50
    # Queue the fire for t=50 *after* the expire (nested schedule runs
    # at t=0 once the waiter process has started).
    sim.schedule(0, lambda _: sim.schedule(50, lambda _: sig.fire("late")))
    sim.run()
    assert outcome == [("timeout", 50)]
    assert sig.waiting == 0  # the waiter list was not corrupted

    # A fresh wait on the same signal still works.
    woken = []

    def late_waiter():
        woken.append((yield sig.wait()))

    sim.process(late_waiter(), "late")
    sim.schedule(10, lambda _: sig.fire("again"))
    sim.run()
    assert woken == ["again"]


def test_mailbox_put_wakes_waiters_in_scheduling_not_call_order():
    """Same-cycle producer/consumer ordering: ``put`` must not run the
    waiter's continuation inside the producer's stack frame.  The
    producer finishes its cycle first; blocked consumers then resume in
    FIFO order within the same cycle."""
    sim = Simulator()
    box = Mailbox(sim)
    log = []

    def consumer(index):
        item = yield box.get()
        log.append(("consumer", index, item, sim.now))

    def producer():
        yield 5
        box.put("a")
        log.append(("producer", "after-put-a", sim.now))
        box.put("b")
        log.append(("producer", "after-put-b", sim.now))

    sim.process(consumer(0), "c0")
    sim.process(consumer(1), "c1")
    sim.process(producer(), "p")
    sim.run()
    assert log == [
        ("producer", "after-put-a", 5),
        ("producer", "after-put-b", 5),
        ("consumer", 0, "a", 5),
        ("consumer", 1, "b", 5),
    ]


def test_signal_fire_cancels_pending_timeout_timers():
    """A fired wait(timeout=...) leaves no dead timer behind: the run
    ends at the fire cycle, and nothing stays pending afterwards."""
    sim = Simulator()
    signal = Signal(sim)
    woken = []

    def waiter():
        yield signal.wait(timeout=1000)
        woken.append(sim.now)

    def firer():
        yield 10
        signal.fire()

    sim.process(waiter(), "w")
    sim.process(firer(), "f")
    sim.run()
    assert woken == [10]
    assert sim.now == 10  # the cancelled timer never dragged the clock
    assert sim.pending_events == 0


def test_signal_timeout_still_fires_when_not_signalled():
    sim = Simulator()
    signal = Signal(sim)

    def waiter():
        try:
            yield signal.wait(timeout=25)
        except WaitTimeout:
            return sim.now
        return None

    assert sim.run_process(waiter(), "w") == 25
    assert sim.pending_events == 0
