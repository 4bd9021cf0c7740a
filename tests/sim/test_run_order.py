"""Ordering and accounting around heap entries ``run`` executes directly.

A heap entry that has its cycle to itself runs right where ``run`` pops
it instead of passing through the same-cycle bucket; entries that share
a cycle still move to the bucket together.  Nothing observable may
depend on which of the two happened — these tests pin what must hold
either way, in all three ``run`` modes.
"""

import pytest

from repro.sim import Simulator

#: the three ways into the loop: drain, bounded by time, bounded by an
#: event that triggers only after everything under test has run.
MODES = ("drain", "until", "until_event")


def _run(sim: Simulator, mode: str, horizon: int = 1_000) -> None:
    if mode == "drain":
        sim.run()
    elif mode == "until":
        sim.run(until=horizon)
    else:
        sim.run(until_event=sim.delay(horizon))


@pytest.mark.parametrize("mode", MODES)
def test_lone_entry_runs_its_children_after_itself_and_before_the_next_cycle(mode):
    sim = Simulator()
    seen = []

    def parent(_):
        sim.call_soon(lambda _: seen.append(("soon", sim.now)))
        sim.schedule(0, lambda _: seen.append(("zero", sim.now)))
        sim.schedule_at(sim.now, lambda _: seen.append(("at", sim.now)))
        seen.append(("parent", sim.now))

    sim.schedule(10, parent)
    sim.schedule(11, lambda _: seen.append(("next", sim.now)))
    _run(sim, mode)
    assert seen == [("parent", 10), ("soon", 10), ("zero", 10), ("at", 10),
                    ("next", 11)]


@pytest.mark.parametrize("mode", MODES)
def test_entries_sharing_a_cycle_run_in_scheduling_order_children_last(mode):
    sim = Simulator()
    seen = []

    def entry(tag):
        def run(_):
            seen.append(tag)
            sim.call_soon(lambda _: seen.append(f"{tag}-child"))
        return run

    sim.schedule(5, lambda _: seen.append("earlier"))
    for tag in ("a", "b", "c"):
        sim.schedule(7, entry(tag))
    _run(sim, mode)
    assert seen == ["earlier", "a", "b", "c", "a-child", "b-child", "c-child"]


def test_a_cancelled_neighbour_does_not_reorder_the_survivors():
    # Two entries on one cycle, the first cancelled: the survivor is
    # either run from the bucket or directly, and is followed by its
    # own children either way.
    sim = Simulator()
    seen = []
    doomed = sim.schedule(4, lambda _: seen.append("doomed"))

    def survivor(_):
        seen.append("survivor")
        sim.call_soon(lambda _: seen.append("child"))

    sim.schedule(4, survivor)
    sim.schedule(4, lambda _: seen.append("third"))
    sim.cancel(doomed)
    assert sim.pending_events == 2
    sim.run()
    assert seen == ["survivor", "third", "child"]
    assert sim.pending_events == 0


@pytest.mark.parametrize("mode", MODES)
def test_cancel_from_inside_a_directly_executed_callback(mode):
    sim = Simulator()
    seen = []
    handles = {}

    def lone(_):
        sim.cancel(handles["self"])   # its own, consumed handle: a no-op
        sim.cancel(handles["later"])  # a live one: really cancelled
        seen.append(sim.pending_events)

    handles["self"] = sim.schedule(3, lone)
    handles["later"] = sim.schedule(9, lambda _: seen.append("later"))
    sim.schedule(20, lambda _: seen.append("kept"))
    assert sim.pending_events == 3
    _run(sim, mode)
    # Inside the callback: "later" is gone, "kept" (and in until_event
    # mode the horizon delay) is still queued, the running entry is not.
    assert seen == [2 if mode == "until_event" else 1, "kept"]
    sim.cancel(handles["self"])
    sim.cancel(handles["later"])
    assert sim.pending_events == 0


def test_run_until_event_returns_right_after_a_directly_executed_trigger():
    sim = Simulator()
    seen = []
    done = sim.event("done")

    def trigger(_):
        seen.append("trigger")
        sim.call_soon(lambda _: seen.append("same-cycle child"))
        done.succeed()

    sim.schedule(6, trigger)  # alone on cycle 6: executed directly
    sim.schedule(8, lambda _: seen.append("later"))
    sim.run(until_event=done)
    assert seen == ["trigger"] and sim.now == 6
    assert sim.pending_events == 2  # the child and "later" are still queued
    sim.run()
    assert seen == ["trigger", "same-cycle child", "later"]


def test_run_until_event_returns_right_after_a_bucket_trigger():
    sim = Simulator()
    seen = []
    done = sim.event("done")
    sim.schedule(6, lambda _: seen.append("first"))
    sim.schedule(6, lambda _: done.succeed())
    sim.schedule(6, lambda _: seen.append("third"))
    sim.run(until_event=done)
    assert seen == ["first"] and sim.pending_events == 1
    # An already-triggered event returns at once, running nothing.
    sim.run(until_event=done)
    assert seen == ["first"]


def test_run_until_leaves_the_clock_at_the_bound():
    sim = Simulator()
    seen = []
    sim.schedule(10, lambda _: seen.append(sim.now))  # lone, before the bound
    sim.schedule(25, lambda _: seen.append(sim.now))  # exactly at the bound
    sim.schedule(26, lambda _: seen.append(sim.now))  # beyond it
    sim.run(until=25)
    assert seen == [10, 25] and sim.now == 25
    assert sim.pending_events == 1
    sim.run(until=25)  # nothing left in range: the clock stays put
    assert sim.now == 25
    sim.run(until=40)
    assert seen == [10, 25, 26] and sim.now == 40


def test_lone_and_shared_cycles_interleave_children_in_the_documented_order():
    sim = Simulator()
    seen = []
    for when, tag in ((3, "a"), (5, "b"), (5, "c"), (8, "d")):
        def callback(_, tag=tag):
            seen.append((sim.now, tag))
            if tag in ("a", "b"):
                sim.call_soon(lambda _: seen.append((sim.now, tag + "+")))
        sim.schedule(when, callback)
    sim.run()
    assert seen == [(3, "a"), (3, "a+"), (5, "b"), (5, "c"), (5, "b+"),
                    (8, "d")]
