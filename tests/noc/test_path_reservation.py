"""The per-packet path reservation against a hop-by-hop oracle.

``Network.send`` reserves a packet's whole path in one loop
over cached ``Link`` objects.  The oracle below is the model as it is
documented — walk the router's ``links_on_path``, reserve each link
through the one-link ``Link.reserve``, let downstream hops stall behind
the granted start — on a second, independent set of links that forgets
nothing.  Both must agree on every completion cycle and on everything a
link reports at or after the floor the network gave its links (with no
observer, the cycle of the last send).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import Link, MeshTopology, Network, Packet, XYRouter
from repro.noc.network import PACKET_HEADER_BYTES
from repro.sim import Simulator

WIDTH, HEIGHT, HOP, BANDWIDTH = 3, 3, 3, 8
NODES = WIDTH * HEIGHT


class Oracle:
    """Hop-by-hop reservation on private links, one ``reserve`` a hop."""

    def __init__(self, router):
        self.router = router
        self.links: dict[tuple[int, int], Link] = {}

    def link(self, hop):
        if hop not in self.links:
            self.links[hop] = Link(*hop, BANDWIDTH)
        return self.links[hop]

    def delivery_time(self, now, source, destination, size):
        wire = size + PACKET_HEADER_BYTES
        hops = self.router.links_on_path(source, destination)
        head = completion = now
        for hop in hops or [(source, source)]:  # a self-send loops back
            head, completion = self.link(hop).reserve(head + HOP, wire)
        return completion


nodes = st.integers(min_value=0, max_value=NODES - 1)
#: (cycles the clock advances first, source, destination, payload bytes):
#: zero advances pile packets onto busy links, long ones find them idle;
#: sizes include 0 and multi-window transfers.
sends = st.lists(
    st.tuples(st.sampled_from([0, 0, 1, 2, 5, 40, 400]), nodes, nodes,
              st.sampled_from([0, 1, 8, 48, 64, 500, 4096])),
    min_size=1, max_size=40,
)


@settings(deadline=None, max_examples=150)
@given(sends,
       st.lists(st.integers(min_value=-5, max_value=6000), max_size=8))
def test_path_reservation_equals_hop_by_hop_oracle(sends, probes):
    sim = Simulator()
    topology = MeshTopology(WIDTH, HEIGHT)
    net = Network(sim, topology, hop_cycles=HOP, bytes_per_cycle=BANDWIDTH)
    for node in range(NODES):
        net.attach(node, lambda packet: None)
    oracle = Oracle(XYRouter(topology))
    for advance, source, destination, size in sends:
        sim.run(until=sim.now + advance)
        packet = Packet(source, destination, "message", size)
        assert (net.send(packet)
                == oracle.delivery_time(sim.now, source, destination, size))
    used = {key: link for key, link in net.iter_links() if link.packets}
    assert used.keys() == oracle.links.keys()
    floor = sim.now
    for key, link in used.items():
        expected = oracle.links[key]
        assert link.packets == expected.packets
        assert link.busy_cycles == expected.busy_cycles
        assert link.next_free == expected.next_free
        for t in (*probes, link.next_free - 1, link.next_free, sim.now):
            if t >= floor:
                assert link.busy_within(t) == expected.busy_within(t)


def test_a_probe_below_the_floor_raises():
    """The network forgets a window once a later one opens after it has
    ended: a probe inside it raises instead of answering wrong."""
    sim = Simulator()
    net = Network(sim, MeshTopology(WIDTH, HEIGHT), hop_cycles=HOP,
                  bytes_per_cycle=BANDWIDTH)
    net.attach(1, lambda packet: None)
    net.send(Packet(0, 1, "message", 64))  # [3, 13) on 0->1
    sim.run(until=100)
    net.send(Packet(0, 1, "message", 64))  # [103, 113); [3, 13) forgotten
    link = net.link(0, 1)
    assert link.busy_within(100) == 10
    with pytest.raises(ValueError, match="forgotten"):
        link.busy_within(5)


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=300),
                          st.integers(min_value=0, max_value=900)),
                min_size=1, max_size=40),
       st.lists(st.integers(min_value=-3, max_value=2000), max_size=12))
def test_window_record_matches_a_cycle_by_cycle_count(requests, probes):
    """``busy_within``/``busy_cycles``/``next_free`` read off the merged
    (end, idle-before) record equal a brute-force set of busy cycles."""
    link = Link(0, 1, BANDWIDTH)
    busy = set()
    for earliest, nbytes in requests:
        start, end = link.reserve(earliest, nbytes)
        assert start >= earliest and end - start == link.serialization_cycles(nbytes)
        assert not busy & set(range(start, end))
        busy.update(range(start, end))
    assert link.packets == len(requests)
    assert link.busy_cycles == len(busy)
    assert link.next_free == max(busy) + 1
    for t in (*probes, link.next_free):
        assert link.busy_within(t) == sum(1 for cycle in busy if cycle < t)


def test_paths_are_cached_tuples_of_the_networks_own_links():
    sim = Simulator()
    net = Network(sim, MeshTopology(WIDTH, HEIGHT))
    path = net.paths[0, 8]
    assert path is net.paths[0, 8]
    assert [(hop.source, hop.destination) for hop in path] == \
        net.router.links_on_path(0, 8)
    assert all(hop is net.link(hop.source, hop.destination) for hop in path)
    assert net.paths[4, 4] == (net.link(4, 4),)
