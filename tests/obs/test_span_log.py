"""The columnar span log reads back exactly what was recorded.

``Observer.spans`` builds ``Span`` tuples on demand from four columns;
these tests record a random interleaving of ``begin`` / ``end`` /
``complete`` while building the same tuples in a plain list beside it,
and compare every way a reader gets at them — with and without the
``span_capacity`` ring.
"""

import gc
import random

import pytest

from repro.obs import Observer, Span
from repro.sim import Simulator

NODES = 3


def _record(seed: int, steps: int, capacity: int | None):
    """Drive one observer; return ``(observer, every span recorded)``."""
    rng = random.Random(seed)
    sim = Simulator()
    obs = Observer.install(sim, span_capacity=capacity)
    recorded: list[Span] = []
    open_spans: list[tuple] = []
    for step in range(steps):
        sim.run(until=sim.now + rng.randrange(4))
        node = rng.randrange(NODES)
        action = rng.choice(("begin", "end", "complete", "complete"))
        if action == "begin":
            parent = obs.causal.current(node)
            args = {"step": step} if rng.random() < 0.5 else {}
            span_id = obs.begin(f"op{step % 5}", "test", node, **args)
            open_spans.append((
                span_id, f"op{step % 5}", node, sim.now, args,
                obs.causal.current(node).trace_id,
                parent.span_id if parent.valid else -1,
            ))
        elif action == "end" and open_spans:
            span_id, name, node, begin, args, trace_id, parent_id = \
                open_spans.pop(rng.randrange(len(open_spans)))
            extra = {"status": "ok"} if rng.random() < 0.5 else {}
            assert obs.end(span_id, **extra) == span_id
            recorded.append(Span(name, "test", node, begin, sim.now,
                                 {**args, **extra} or None,
                                 span_id, parent_id, trace_id))
        elif action == "complete":
            begin = sim.now - rng.randrange(10)
            args = obs.shared_args[("size",), (rng.randrange(3),)]
            if rng.random() < 0.5:  # stamped, like a packet's span
                name, category, end = "pkt", "noc", sim.now + 5
                trace_id, parent_id = rng.choice(((-1, -1), (7, 3)))
                span_id = obs.complete(name, category, node, begin, end, -1,
                                       trace_id, parent_id, args)
            else:  # under the node's active context, if it has one
                name, category, end = "xfer", "dtu", sim.now
                trace_id, parent_id = obs.causal.current(node)
                span_id = obs.complete(name, category, node, begin, args=args)
            assert (span_id >= 0) == (trace_id >= 0)
            recorded.append(Span(name, category, node, begin, end, args,
                                 span_id, parent_id, trace_id))
    return obs, recorded


@pytest.mark.parametrize("capacity", [None, 1, 7, 64])
@pytest.mark.parametrize("seed", range(4))
def test_every_read_agrees_with_a_list_of_tuples(seed, capacity):
    obs, recorded = _record(seed, 400, capacity)
    held = recorded if capacity is None else recorded[-capacity:]
    assert len(recorded) > 64
    assert len(obs.spans) == len(held)
    assert obs.spans_dropped == len(recorded) - len(held)
    assert list(obs.spans) == held
    assert list(reversed(obs.spans)) == held[::-1]
    for index in range(len(held)):
        assert obs.spans[index] == held[index]
        assert obs.spans[index - len(held)] == held[index]
    assert obs.spans[-1] == held[-1] and held[0] in obs.spans
    for index in (len(held), -len(held) - 1):
        with pytest.raises(IndexError):
            obs.spans[index]
    # Interned args stay the one mapping, not a copy per tuple.
    shared = [span for span in obs.spans if span.category != "test"]
    assert all(span.args is obs.shared_args[("size",), (span.args["size"],)]
               for span in shared)


def test_an_empty_log_reads_as_an_empty_sequence():
    obs = Observer(Simulator())
    assert len(obs.spans) == 0 and list(obs.spans) == []
    with pytest.raises(IndexError):
        obs.spans[0]
    with pytest.raises(IndexError):
        obs.spans[-1]


def test_recorded_spans_are_not_objects_the_collector_tracks():
    """10,000 spans cost the cycle collector a constant number of
    tracked objects (the columns), not one per span — which is what
    took an observed pass from 238 gen-0 collections to 67."""
    obs = Observer.install(Simulator())
    args = obs.shared_args[("destination", "bytes"), (1, 64)]

    def record(count):
        for index in range(count):
            obs.complete("message", "noc", index % 16, index, index + 9,
                         -1, 5, index, args)

    record(10)  # columns allocated, ids warmed
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        record(10_000)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(obs.spans) == 10_010
    assert grown < 20, f"{grown} new tracked objects for 10,000 spans"
