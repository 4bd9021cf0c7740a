"""Unit tests for mailboxes, semaphores and signals."""

import pytest

from repro.sim import Mailbox, Signal, Simulator
from repro.sim.events import first_of


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
    assert not box.get().triggered  # drained: the next get waits


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


def test_signal_arms_one_event_and_wakes_waiters_in_order():
    """Every wait before a fire shares the signal's one armed event;
    its waiters wake in the order they registered, and the next wait
    arms a fresh one."""
    sim = Simulator()
    sig = Signal(sim)
    woken = []

    def waiter(tag):
        woken.append((tag, (yield sig.wait())))

    for tag in "abc":
        sim.process(waiter(tag), tag)
    sim.run()
    armed = sig.wait()
    assert armed is sig.wait()
    assert sig.waiting == 3
    sig.fire("go")
    sim.run()
    assert woken == [("a", "go"), ("b", "go"), ("c", "go")]
    assert sig.waiting == 0
    assert sig.wait() is not armed


def test_first_of_withdraws_from_its_losers():
    """The win takes the race's callback off every losing event, so an
    event raced again and again (a kernel inbox's signal) holds one
    registration, not one per lost round."""
    sim = Simulator()
    a, b = sim.event("a"), sim.event("b")
    race = first_of(sim, a, b)
    a.succeed("win")
    sim.run()
    assert race.value is a
    assert not b._callbacks

    busy, quiet = Signal(sim, "busy"), Signal(sim, "quiet")
    for _ in range(5):
        race = first_of(sim, busy.wait(), quiet.wait())
        busy.fire()
        sim.run()
        assert race.triggered
    assert quiet.waiting == 0
