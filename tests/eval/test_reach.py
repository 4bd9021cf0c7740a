"""The reachability tracer: what it counts, and that its allow-list
names functions that exist."""

import sys

from benchmarks.perf import reach
from repro.noc import MeshTopology, XYRouter


def test_tracer_tells_entered_from_never_entered_and_goes_quiet():
    table = reach.function_bodies()
    by_name = {record[0]: record for record in table.values()}
    route = by_name["repro.noc.routing:XYRouter.route"]
    hops = by_name["repro.noc.routing:XYRouter.hops"]
    assert route[2] == len(route[1]) > 0 and not route[3]
    reach.install(table)
    try:
        router = XYRouter(MeshTopology(3, 3))
        router.route(0, 1)  # east only: the vertical loop body never runs
        assert route[3] and 0 < len(route[1]) < route[2]
        router.route(0, 8)
        router.route(8, 0)
        assert not route[1]  # every line seen: the body is not traced again
    finally:
        sys.settrace(None)
    assert not hops[3] and len(hops[1]) == hops[2]


def test_every_allowed_name_is_a_function_under_src():
    known = {record[0] for record in reach.function_bodies().values()}
    assert reach.read_allowed() <= known
