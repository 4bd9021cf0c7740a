"""Causal tracing: context stacks, request assembly, critical paths."""

import pytest

from repro.obs import Observer
from repro.obs.causal import (
    NO_CONTEXT,
    CausalTracker,
    TraceContext,
    assemble_requests,
    component_breakdown,
    component_of,
    critical_path,
    find_request,
)
from repro.sim import Simulator


# -- the tracker --------------------------------------------------------------


def test_tracker_nests_and_closes_by_span_id():
    tracker = CausalTracker()
    assert tracker.current(0) == NO_CONTEXT
    trace, parent = tracker.open(0, span_id=1)
    assert trace >= 1 and parent == -1
    trace2, parent2 = tracker.open(0, span_id=2)
    assert trace2 == trace and parent2 == 1
    # interleaved processes may close out of stack order
    tracker.close(0, 1)
    assert tracker.current(0) == TraceContext(trace, 2)
    tracker.close(0, 2)
    assert tracker.current(0) == NO_CONTEXT
    tracker.close(0, 99)  # unknown ids are tolerated


def test_tracker_adopts_explicit_parent():
    tracker = CausalTracker()
    assert tracker.open(3, 7, parent=TraceContext(42, 5)) == (42, 5)
    # an invalid propagated context starts a fresh trace instead
    trace, parent = tracker.open(4, 8, parent=NO_CONTEXT)
    assert trace != 42 and parent == -1
    # contexts are per node
    assert tracker.current(3).span_id == 7
    assert tracker.current(4).span_id == 8
    assert tracker.current(5) == NO_CONTEXT


# -- spans carry trace fields -------------------------------------------------


def test_begin_records_lineage():
    sim = Simulator()
    obs = Observer.install(sim)
    root = obs.begin("req", "syscall-client", node=1)
    child = obs.begin("handle", "syscall", node=1)
    obs.end(child)
    obs.end(root)
    spans = {span.name: span for span in obs.spans}
    assert spans["req"].parent_id == -1 and spans["req"].trace_id >= 1
    assert spans["handle"].parent_id == spans["req"].span_id
    assert spans["handle"].trace_id == spans["req"].trace_id


def test_complete_joins_but_never_starts_traces():
    sim = Simulator()
    obs = Observer.install(sim)
    assert obs.complete("background", "noc", 0, 0, 10) == -1
    idle = obs.spans[-1]
    assert idle.trace_id == -1 and idle.span_id == -1
    root = obs.begin("req", "syscall-client", node=0)
    obs.complete("xfer", "dtu", 0, 0, 5)
    nested = obs.spans[-1]
    obs.end(root)
    root_span = next(s for s in obs.spans if s.name == "req")
    assert nested.trace_id == root_span.trace_id
    assert nested.parent_id == root_span.span_id
    assert nested.span_id >= 0


# -- assembly and critical paths ----------------------------------------------


def _observer_with_tree():
    """One request: root [0,100), message [10,30) -> queueing [20,30),
    kernel handler [30,80)."""
    sim = Simulator()
    obs = Observer.install(sim)
    root_id = obs.begin("noop", "syscall-client", node=0, vpe=1)
    sim.schedule(100, lambda _: obs.end(root_id))
    sim.run()
    root = obs.spans[0]
    ctx = {"trace_id": root.trace_id, "parent_id": root.span_id}
    message = obs.complete("message", "dtu", 0, 10, 30, **ctx)
    assert obs.spans[-1].span_id == message
    obs.complete("queueing", "noc-queue", 0, 20, 30,
                 trace_id=root.trace_id, parent_id=message)
    obs.complete("noop", "syscall", 1, 30, 80, **ctx)
    return obs


def test_assemble_requests_builds_one_tree():
    obs = _observer_with_tree()
    (request,) = assemble_requests(obs)
    assert request.root.name == "noop"
    assert request.root.category == "syscall-client"
    assert request.total_cycles == 100
    children = request.children()
    assert {s.name for s in children[request.root.span_id]} == {
        "message", "noop"
    }


def test_find_request_picks_last_match():
    sim = Simulator()
    obs = Observer.install(sim)
    for _ in range(2):
        span = obs.begin("noop", "syscall-client", node=0)
        obs.end(span)
    requests = assemble_requests(obs)
    assert find_request(obs, "noop") == requests[-1]
    with pytest.raises(ValueError, match="no traced request"):
        find_request(obs, "missing")


def test_critical_path_charges_deepest_cover_exactly():
    obs = _observer_with_tree()
    (request,) = assemble_requests(obs)
    segments = critical_path(request)
    assert sum(s.cycles for s in segments) == request.total_cycles
    assert [(s.start, s.end, s.component) for s in segments] == [
        (0, 10, "libm3"),
        (10, 20, "dtu-transfer"),
        (20, 30, "noc-contention"),  # deeper than the covering message
        (30, 80, "kernel"),
        (80, 100, "libm3"),  # the root covers the tail
    ]
    breakdown = component_breakdown(segments)
    assert breakdown == {
        "libm3": 30,
        "dtu-transfer": 10,
        "noc-contention": 10,
        "kernel": 50,
    }


def test_component_mapping_defaults_to_other():
    assert component_of("syscall") == "kernel"
    assert component_of("ik") == "inter-kernel"
    assert component_of("mystery") == "other"
