"""The span log reads back exactly what was recorded.

``Observer.spans`` stores a span as one row of ints plus an interned
kind ``(name, category, args)`` and builds ``Span`` tuples on demand;
these tests record a random interleaving of ``begin`` / ``end`` /
``record`` while building the same tuples in a plain list beside it, and compare every way a reader gets at them — with and
without the ``span_capacity`` ring.
"""

import gc
import random

import pytest

from repro.obs import Observer, Span
from repro.sim import Simulator

NODES = 3
NAMES = ("pkt", "xfer", "op")
CATEGORIES = ("noc", "dtu", "test")
PACKET_ARGS = ("destination", "bytes")


def _draw_args(rng: random.Random):
    """None, ``{}``, or a fresh dict equal to earlier ones."""
    roll = rng.random()
    if roll < 0.15:
        return None
    if roll < 0.25:
        return {}
    if roll < 0.6:
        return {"size": rng.randrange(3)}
    return {"destination": rng.randrange(2), "bytes": 64}


def _content(args):
    """What interning keys ``args`` by: ``None`` for no args, else the
    items."""
    return tuple(args.items()) if args else None


def _record(seed: int, steps: int, capacity: int | None):
    """Drive one observer; return ``(observer, every span recorded,
    the number of distinct (name, category, args) among them)``."""
    rng = random.Random(seed)
    sim = Simulator()
    obs = Observer.install(sim, span_capacity=capacity)
    recorded: list[Span] = []
    open_spans: list[tuple] = []
    for step in range(steps):
        sim.run(until=sim.now + rng.randrange(4))
        node = rng.randrange(NODES)
        name, category = rng.choice(NAMES), rng.choice(CATEGORIES)
        action = rng.choice(("begin", "end", "record", "record", "record"))
        if action == "begin":
            parent = obs.causal.current(node)
            args = {"step": step % 4} if rng.random() < 0.5 else {}
            span_id = obs.begin(name, category, node, **args)
            open_spans.append((
                span_id, name, category, node, sim.now, args,
                obs.causal.current(node).trace_id,
                parent.span_id if parent.valid else -1,
            ))
        elif action == "end" and open_spans:
            (span_id, name, category, node, begin, args, trace_id,
             parent_id) = open_spans.pop(rng.randrange(len(open_spans)))
            extra = {"status": "ok"} if rng.random() < 0.5 else {}
            assert obs.end(span_id, **extra) == span_id
            args = {**args, **extra} or None
            recorded.append(Span(name, category, node, begin, sim.now, args,
                                 span_id, parent_id, trace_id))
        elif action == "record":  # after the fact: interned kind, stamp
            begin, end = sim.now - rng.randrange(10), sim.now + 5
            args = _draw_args(rng)
            kind = obs.kinds[name, category, tuple(args or ()),
                             tuple(args.values()) if args else ()]
            trace_id, parent_id = rng.choice(((-1, -1), (7, 3)))
            span_id = obs.record(kind, node, begin, end, -1,
                                 trace_id, parent_id)
            assert (span_id >= 0) == (trace_id >= 0)
            recorded.append(Span(name, category, node, begin, end,
                                 args or None, span_id, parent_id, trace_id))
    # ``recorded`` holds every args object, so each ``id`` stays unique.
    triples = {(span.name, span.category, _content(span.args))
               for span in recorded}
    return obs, recorded, len(triples)


@pytest.mark.parametrize("capacity", [None, 1, 7, 64])
@pytest.mark.parametrize("seed", range(4))
def test_every_read_agrees_with_a_list_of_tuples(seed, capacity):
    obs, recorded, distinct = _record(seed, 400, capacity)
    held = recorded if capacity is None else recorded[-capacity:]
    assert len(recorded) > 64
    assert len(obs.spans) == len(held)
    assert obs.spans_dropped == len(recorded) - len(held)
    assert list(obs.spans) == held
    assert list(reversed(obs.spans)) == held[::-1]
    for index in range(len(held)):
        # Field by field, args by value: a Span compares as a tuple.
        assert tuple(obs.spans[index]) == tuple(held[index])
        assert obs.spans[index - len(held)] == held[index]
    assert obs.spans[-1] == held[-1] and held[0] in obs.spans
    for index in (len(held), -len(held) - 1):
        with pytest.raises(IndexError):
            obs.spans[index]
    # One kind per distinct (name, category, args), dropped ones included.
    assert len(obs.spans.kinds) == distinct
    # Equal args are the one mapping, not a copy per span or per kind.
    shared: dict = {}
    for span in obs.spans:
        if span.args:
            content = _content(span.args)
            assert shared.setdefault(content, span.args) is span.args


def test_a_slice_is_a_list_of_spans_in_log_order_around_the_ring():
    """Slicing used to raise ``TypeError`` (``int + range``)."""
    obs = Observer(Simulator(), span_capacity=3)
    for index in range(5):
        obs.record(obs.kinds[f"s{index}", "cat", (), ()], -1, index,
                   index + 1, -1, -1, -1)
    spans = list(obs.spans)
    assert [span.name for span in spans] == ["s2", "s3", "s4"]
    for cut in (slice(-2, None), slice(None, None, -1), slice(1, None)):
        assert obs.spans[cut] == spans[cut]
        assert type(obs.spans[cut]) is list
    assert obs.spans[5:] == []


def test_an_empty_log_reads_as_an_empty_sequence():
    obs = Observer(Simulator())
    assert len(obs.spans) == 0 and list(obs.spans) == []
    assert obs.spans[:] == []
    with pytest.raises(IndexError):
        obs.spans[0]
    with pytest.raises(IndexError):
        obs.spans[-1]


def test_a_value_out_of_its_column_raises_and_records_nothing():
    obs = Observer(Simulator())
    kind = obs.kinds["pkt", "noc", (), ()]
    with pytest.raises(OverflowError):
        obs.record(kind, 0, 0, 1, 2**31, 1, -1)
    assert len(obs.spans) == 0 and all(not c for c in obs.spans.columns)
    obs.record(kind, 0, 0, 2**40, -1, -1, -1)  # cycles are 64-bit
    assert obs.spans[0].end == 2**40


def test_recorded_spans_are_not_objects_the_collector_tracks():
    """10,000 packet-like spans over 5 distinct args are 5 kinds and
    cost the cycle collector a constant number of tracked objects, not
    one per span — which is what took an observed pass from 238 gen-0
    collections to 67."""
    obs = Observer.install(Simulator())

    def record(count):
        for index in range(count):
            kind = obs.kinds["message", "noc", PACKET_ARGS, (index % 5, 64)]
            obs.record(kind, index % 16, index, index + 9, -1, 5, index)

    record(10)  # columns allocated, ids warmed, kinds interned
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        record(10_000)
        grown = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert len(obs.spans) == 10_010
    assert len(obs.spans.kinds) == 5
    assert grown < 20, f"{grown} new tracked objects for 10,000 spans"
