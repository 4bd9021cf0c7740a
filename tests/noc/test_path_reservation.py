"""The per-packet path reservation against a hop-by-hop oracle.

``Network.send`` reserves a packet's whole path in one loop
over cached ``Link`` objects.  The oracle below is the model as it is
documented — walk the router's ``links_on_path``, reserve each hop on a
:class:`FullLink`, let downstream hops stall behind the granted start —
on a second, independent set of links that forgets nothing.  Both must
agree on every completion cycle and on everything a link reports at or
after the cycle of the last send, behind which the network's links
forget.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import Link, MeshTopology, Network, Packet, XYRouter
from repro.noc.link import reserve_path
from repro.noc.network import PACKET_HEADER_BYTES
from repro.sim import Simulator

WIDTH, HEIGHT, HOP, BANDWIDTH = 3, 3, 3, 8
NODES = WIDTH * HEIGHT


class FullLink:
    """One link as documented, with its whole history: reservations
    granted in request order, contiguous windows merged, nothing
    forgotten — the reference a ``Link`` is compared against."""

    def __init__(self, bytes_per_cycle=BANDWIDTH):
        self.bytes_per_cycle = bytes_per_cycle
        #: merged ``[start, end)`` windows, oldest first; an empty one
        #: at cycle 0 opens the record, as it opens a ``Link``'s.
        self.windows = [[0, 0]]
        self.packets = 0

    @property
    def next_free(self):
        return self.windows[-1][1]

    @property
    def busy_cycles(self):
        return sum(end - start for start, end in self.windows)

    @property
    def windows_retained(self):
        return len(self.windows)

    def reserve(self, earliest, nbytes):
        """``(start, end)`` of ``nbytes`` granted no earlier than ``earliest``."""
        start = max(earliest, self.next_free)
        end = start + (-(-nbytes // self.bytes_per_cycle) or 1)
        if start == self.next_free:
            self.windows[-1][1] = end
        else:
            self.windows.append([start, end])
        self.packets += 1
        return start, end

    def busy_within(self, elapsed):
        return sum(max(0, min(end, elapsed) - start)
                   for start, end in self.windows)

    def utilization(self, elapsed):
        return self.busy_within(elapsed) / elapsed if elapsed > 0 else 0.0


class Oracle:
    """Hop-by-hop reservation on private links, one ``reserve`` a hop."""

    def __init__(self, router):
        self.router = router
        self.links: dict[tuple[int, int], FullLink] = {}

    def link(self, hop):
        if hop not in self.links:
            self.links[hop] = FullLink()
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
                          st.integers(min_value=0, max_value=40),
                          st.integers(min_value=0, max_value=900)),
                min_size=1, max_size=40),
       st.lists(st.integers(min_value=-3, max_value=2000), max_size=12))
def test_window_record_matches_a_cycle_by_cycle_count(requests, probes):
    """``busy_within``/``busy_cycles``/``next_free`` read off the merged
    (end, idle-before) record equal a brute-force set of busy cycles at
    or after the latest head; below it a probe is loud or right."""
    link = Link(0, 1, BANDWIDTH)
    busy = set()
    for head, stall, nbytes in requests:
        duration = link.serialization_cycles(nbytes)
        end = reserve_path((link,), head, stall, duration)
        start = end - duration
        assert start >= head + stall
        assert not busy & set(range(start, end))
        busy.update(range(start, end))
    floor = max(head for head, _stall, _nbytes in requests)
    assert link.packets == len(requests)
    assert link.busy_cycles == len(busy)
    assert link.next_free == max(busy) + 1
    for t in (*probes, floor, link.next_free):
        expected = sum(1 for cycle in busy if cycle < t)
        if t >= floor:
            assert link.busy_within(t) == expected
            continue
        try:
            assert link.busy_within(t) == expected
        except ValueError as error:
            assert "forgotten" in str(error)


def test_paths_are_cached_tuples_of_the_networks_own_links():
    sim = Simulator()
    net = Network(sim, MeshTopology(WIDTH, HEIGHT))
    path = net.paths[0, 8]
    assert path is net.paths[0, 8]
    assert [(hop.source, hop.destination) for hop in path] == \
        net.router.links_on_path(0, 8)
    assert all(hop is net.link(hop.source, hop.destination) for hop in path)
    assert net.paths[4, 4] == (net.link(4, 4),)
