"""The reachability tracer: what it counts, and that its allow-list
names functions that exist."""

import re
import sys

from benchmarks.perf import reach
from repro.faults.plan import PacketRule
from repro.noc import MeshTopology, Network, Packet, XYRouter
from repro.sim import Simulator


def test_tracer_tells_entered_from_never_entered_and_goes_quiet():
    table = reach.function_bodies()
    by_name = {record[0]: record for record in table.values()}
    route = by_name["repro.noc.routing:XYRouter.route"]
    unused = by_name["repro.noc.topology:MeshTopology.__repr__"]
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
    assert not unused[3] and len(unused[1]) == unused[2]


def test_a_comprehension_counts_toward_its_function():
    """As on 3.12, which inlines comprehensions (PEP 709): the lines of
    the list built in ``PacketRule.matches`` are its own, unseen until
    a link-scoped rule builds it, and no record is the comprehension's."""
    table = reach.function_bodies()
    assert not any(record[0].endswith(tuple(reach.COMPREHENSIONS))
                   for record in table.values())
    by_name = {record[0]: record for record in table.values()}
    matches = by_name["repro.faults.plan:PacketRule.matches"]
    network = Network(Simulator(), MeshTopology(3, 1))
    packet = Packet(0, 2, "message", 8)
    reach.install(table)
    try:
        PacketRule(1.0).matches(packet, 0, network)
        unseen = set(matches[1])
        PacketRule(1.0, link=(1, 2)).matches(packet, 0, network)
    finally:
        sys.settrace(None)
    assert matches[3]
    built = unseen - matches[1]  # the link test and the list it builds
    assert built and len(built) < len(unseen) <= matches[2]
    assert "repro.faults.plan:PacketRule.matches" not in reach.report(table)


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


#: a reason naming tests as what reads the function.
TESTS_AS_READER = re.compile(
    r"\bfor tests\b|\bread API\b.*\btests\b|\btests?\b.*\b(read|check)s?\b")


def test_no_reason_names_tests_as_the_reader():
    """A function only tests read leaves src/ (or gains a production
    reader); the one exception is a read a law of tests/m3/invariants.py
    needs, named as that law."""
    for planted in ("introspection for tests",
                    "link read API for tests and the retained-window budget",
                    "allocator accounting the memmgr and capexchange tests check"):
        assert TESTS_AS_READER.search(planted), planted
    for line in reach.ALLOW_PATH.read_text().splitlines():
        name, _, reason = line.partition("#")
        if name.strip() and TESTS_AS_READER.search(reason):
            assert "tests/m3/invariants.py" in reason, line
