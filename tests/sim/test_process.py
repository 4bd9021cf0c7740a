"""Unit tests for generator-driven processes."""

import gc
import weakref

import pytest

from repro.sim import Simulator
from repro.sim.events import Interrupt, first_of


def test_process_advances_time_with_int_yields():
    sim = Simulator()

    def body():
        yield 10
        yield 15
        return sim.now

    assert sim.run_process(body()) == 25


def test_process_result_propagates():
    sim = Simulator()

    def body():
        yield 1
        return "done"

    assert sim.run_process(body()) == "done"


def test_process_exception_propagates():
    sim = Simulator()

    def body():
        yield 1
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        sim.run_process(body())


def test_process_waits_on_event_and_receives_value():
    sim = Simulator()
    ev = sim.event()

    def producer():
        yield 30
        ev.succeed("payload")

    def consumer():
        value = yield ev
        return (sim.now, value)

    sim.process(producer(), "producer")
    assert sim.run_process(consumer(), "consumer") == (30, "payload")


def test_failed_event_throws_into_process():
    sim = Simulator()
    ev = sim.event()

    def failer():
        yield 5
        ev.fail(ValueError("bad"))

    def waiter():
        try:
            yield ev
        except ValueError as exc:
            return f"caught {exc}"

    sim.process(failer(), "failer")
    assert sim.run_process(waiter(), "waiter") == "caught bad"


def test_joining_a_process_returns_its_result():
    sim = Simulator()

    def child():
        yield 40
        return 7

    def parent():
        proc = sim.process(child(), "child")
        result = yield proc
        return (sim.now, result)

    assert sim.run_process(parent(), "parent") == (40, 7)


def test_yield_from_composition():
    sim = Simulator()

    def inner():
        yield 10
        return 3

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b

    assert sim.run_process(outer()) == 6
    assert sim.now == 20


def test_yielding_garbage_fails_process():
    sim = Simulator()

    def body():
        yield "nonsense"

    with pytest.raises(TypeError):
        sim.run_process(body())


def test_non_generator_rejected():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None, "bad")


def test_interrupt_blocked_process():
    sim = Simulator()

    def sleeper():
        try:
            yield 1000
        except Interrupt as intr:
            return ("interrupted", sim.now, intr.args[0])

    proc = sim.process(sleeper(), "sleeper")

    def interrupter():
        yield 50
        proc.interrupt("wakeup")

    sim.process(interrupter(), "interrupter")
    sim.run()
    assert proc.done.value == ("interrupted", 50, "wakeup")


def test_a_failure_nobody_waits_on_leaves_the_run():
    sim = Simulator()

    def body():
        yield 10
        raise ValueError("unwatched")

    proc = sim.process(body(), "body")
    sim.schedule(100, lambda _: None)  # the queue is not idle
    with pytest.raises(ValueError, match="unwatched"):
        sim.run()
    assert sim.now == 10 and not proc.done.ok
    sim.run()  # what was queued behind it still runs
    assert sim.now == 100


def test_a_failure_is_thrown_into_its_joiners_and_races():
    sim = Simulator()

    def child():
        yield 10
        raise ValueError("watched")

    def parent():
        try:
            yield sim.process(child(), "child")
        except ValueError as exc:
            return f"caught {exc}"

    raced = sim.process(child(), "raced")
    race = first_of(sim, raced.done, sim.delay(50))
    assert sim.run_process(parent(), "parent") == "caught watched"
    sim.run()
    assert race.value is raced.done and not raced.done.ok


def test_an_uncaught_interrupt_only_ends_its_process():
    sim = Simulator()

    def sleeper():
        yield 1000

    proc = sim.process(sleeper(), "sleeper")
    sim.schedule(50, lambda _: proc.interrupt("halt"))
    sim.run()
    assert not proc.alive and isinstance(proc.done.value, Interrupt)


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick():
        yield 1

    proc = sim.process(quick(), "quick")
    sim.run()
    proc.interrupt()  # must not raise
    assert not proc.alive


def test_finished_unreferenced_process_is_collectable():
    """The simulator keeps no list of the processes it started: a
    per-frame DMA process (and the frame its closure holds) goes away
    with its last event instead of living as long as the simulator."""
    sim = Simulator()
    payload = bytearray(4096)

    def body(frame):
        yield 5
        return len(frame)

    generator = body(payload)
    # ``Process`` is slotted and not weak-referenceable; the generator
    # it owns (whose frame held the payload) is.
    watch = weakref.ref(generator)
    process = sim.process(generator, "dma")
    sim.run()
    assert process.done.value == 4096
    del generator, process
    gc.collect()
    assert watch() is None
