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


def test_check_fails_on_an_unlisted_and_on_a_stale_entry():
    assert reach.check({"m:f", "m:g"}, {"m:f", "m:g"}) == []
    unlisted = reach.check({"m:f", "m:g"}, {"m:f"})
    assert len(unlisted) == 1 and unlisted[0].startswith("never entered")
    assert unlisted[0].endswith(": m:g")
    stale = reach.check({"m:f"}, {"m:f", "m:gone"})
    assert len(stale) == 1 and stale[0].endswith("entered, or gone: m:gone")
    assert len(reach.check({"m:a"}, {"m:b"})) == 2


def test_no_reason_cites_design():
    """A paper extension earns its place through a production entry
    point, not through a DESIGN row."""
    for line in reach.ALLOW_PATH.read_text().splitlines():
        name, _, reason = line.partition("#")
        if name.strip():
            assert reason.strip(), name
            assert "DESIGN" not in reason, line
