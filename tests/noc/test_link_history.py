"""Links keep only what is still in flight, not their whole history.

``reserve_path`` keeps the window a new one succeeds only while it ends
after the packet's own head cycle, with or without an observer: every
reader asks at or after the cycle of every reservation already made
(telemetry closes its ended epochs before a packet reserves).  Two
things must hold: whatever a link answers at or after the last head is
exactly what a never-forgetting twin (``FullLink``) answers, and what
the links retain follows the traffic in flight instead of growing with
the packets simulated.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import Link, MeshTopology, Network, Packet, XYRouter
from repro.noc.link import reserve_path
from repro.obs import Observer
from repro.obs.timeseries import LinkOccupancy
from repro.sim import Simulator
from tests.noc.test_path_reservation import (
    BANDWIDTH, HOP, FullLink, Oracle, next_free, windows_held, wire_cycles)

# -- one link ------------------------------------------------------------------

#: ("advance", cycles the head moves on) | ("reserve", cycles the packet
#: stalled upstream, bytes) | ("probe", t)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.integers(min_value=0, max_value=100)),
        st.tuples(st.just("reserve"), st.integers(min_value=0, max_value=200),
                  st.integers(min_value=0, max_value=300)),
        st.tuples(st.just("probe"), st.integers(min_value=-3, max_value=700)),
    ),
    min_size=1, max_size=60,
)


@settings(deadline=None, max_examples=300)
@given(steps)
def test_folded_link_answers_exactly_what_an_unfolded_twin_does(steps):
    folded, twin = Link(0, 1), FullLink()
    head = 0
    for step in steps:
        if step[0] == "reserve":
            stall, nbytes = step[1:]
            duration = wire_cycles(nbytes)
            end = reserve_path((folded,), head, stall, duration)
            assert (end - duration, end) == twin.reserve(head + stall, nbytes)
        elif step[0] == "advance":
            head += step[1]
        else:
            t = step[1]
            if t >= head:
                assert folded.busy_within(t) == twin.busy_within(t)
                assert folded.utilization(t) == twin.utilization(t)
                continue
            try:  # below the last head: loud or right, never wrong
                answer = folded.busy_within(t)
            except ValueError:
                assert windows_held(folded) < len(twin.windows)
            else:
                assert answer == twin.busy_within(t)
        assert folded.busy_cycles == twin.busy_cycles
        assert next_free(folded) == twin.next_free
        assert folded.packets == twin.packets
        assert windows_held(folded) <= len(twin.windows)


def test_a_floor_keeps_what_ends_after_it_and_raises_below_it():
    """The floor is each packet's head: what ended by then goes."""
    link = Link(0, 1)
    for start in (10, 30, 50, 70):
        # 5 cycles each, four separate windows, each packet's head at
        # its start: each window ends before the next head.
        reserve_path((link,), start, 0, 5)
    assert windows_held(link) == 1  # [70, 75) only
    assert link.busy_cycles == 20 and next_free(link) == 75
    assert link.busy_within(55) == 15
    assert link.busy_within(72) == 17
    assert link.utilization(100) == pytest.approx(0.2)
    for forgotten in (1, 12, 40, 54):
        with pytest.raises(ValueError, match="forgotten"):
            link.busy_within(forgotten)
    assert link.busy_within(0) == 0  # nothing to know about no time at all
    # A head at 72 that stalled 18 cycles upstream: [70, 75) ends after it.
    reserve_path((link,), 72, 18, 5)
    assert windows_held(link) == 2
    assert link.busy_within(73) == 18
    assert link.busy_within(80) == 20


def test_the_newest_window_is_never_forgotten():
    """It may still grow: a packet queueing behind it extends it in
    place, and ``[head, its new end)`` must stay answerable."""
    link = Link(0, 1)
    reserve_path((link,), 0, 10, 10)  # head at 0, reaches the link at 10: [10, 20)
    reserve_path((link,), 20, 0, 10)  # back to back: now [10, 30)
    assert windows_held(link) == 1
    assert link.busy_within(25) == 15
    assert link.busy_within(20) == 10


# -- a network -------------------------------------------------------------------

WIDTH = HEIGHT = 4
NODES = WIDTH * HEIGHT
LINKS = 2 * (WIDTH * (HEIGHT - 1) + HEIGHT * (WIDTH - 1)) + NODES
EPOCH = 1_000


def _bare_network():
    sim = Simulator()
    topology = MeshTopology(WIDTH, HEIGHT)
    net = Network(sim, topology, hop_cycles=HOP, bytes_per_cycle=BANDWIDTH)
    for node in range(NODES):
        net.attach(node, lambda packet: None)
    return sim, net, Oracle(XYRouter(topology))


def _drive(sim, net, oracle, packets, rng):
    """``packets`` random sends, each checked against the oracle."""
    for _ in range(packets):
        sim.run(until=sim.now + rng.choice((0, 0, 3, 10, 40, 120)))
        source, destination = rng.randrange(NODES), rng.randrange(NODES)
        size = rng.choice((0, 8, 64, 500, 4096))
        assert (net.send(Packet(source, destination, "message", size))
                == oracle.delivery_time(sim.now, source, destination, size))


def _retained(net) -> int:
    return sum(windows_held(link) for _key, link in net.iter_links())


def _observe(sim, net):
    """An observer with telemetry and ``net``'s link series, from now."""
    telemetry = Observer.install(sim).enable_telemetry(epoch=EPOCH)
    telemetry.add_sampler(LinkOccupancy(net))
    return telemetry


def _link_series(telemetry):
    """Per link, ``(epoch end, busy fraction)`` for every epoch it has a
    point in; a flushed last epoch ends at the current cycle."""
    now = telemetry.sim.now
    return {
        tuple(map(int, name.removeprefix("noc.link.").split("->"))):
        [(min(telemetry.end_cycle(index), now), fraction)
         for index, fraction in telemetry.points(name)]
        for name in telemetry.names() if name.startswith("noc.link.")
    }


def _busy_at(windows, boundaries):
    """``busy_within(b)`` of a link with these sorted, disjoint windows,
    for each ascending ``b`` in ``boundaries``, in one sweep."""
    totals, ended, index = [], 0, 0  # ended: the windows over by ``b``
    for boundary in boundaries:
        while index < len(windows) and windows[index][1] <= boundary:
            ended += windows[index][1] - windows[index][0]
            index += 1
        running = windows[index][0] if index < len(windows) else boundary
        totals.append(ended + max(0, boundary - running))
    return totals


def _expected_series(oracle, boundaries):
    """What ``LinkOccupancy`` should have emitted, read off the oracle's
    never-forgetting links: per link, ``(end, busy fraction)`` for every
    epoch it was busy in."""
    series = {}
    for key, link in oracle.links.items():
        busy = _busy_at(link.windows, boundaries)
        assert busy[-1] == link.busy_within(boundaries[-1])
        points = [(end, (after - before) / (end - start))
                  for start, end, before, after
                  in zip(boundaries, boundaries[1:], busy, busy[1:])
                  if after != before]
        if points:
            series[key] = points
    return series


@pytest.mark.parametrize("observed", [False, True], ids=["bare", "observed"])
def test_retained_windows_follow_the_floor_not_the_packet_count(observed):
    retained = {}
    for packets in (5_000, 10_000):
        sim, net, oracle = _bare_network()
        if observed:
            telemetry = _observe(sim, net)
        _drive(sim, net, oracle, packets, random.Random(packets))
        retained[packets] = _retained(net)
        unfolded = sum(len(l.windows) for l in oracle.links.values())
        # A link keeps its newest window and those that had not ended
        # when the next packet's head reached the network: the packets
        # still in flight then.
        assert retained[packets] <= 2 * LINKS
        assert retained[packets] < unfolded / 50
        for key, link in net.iter_links():
            if link.packets:
                twin = oracle.links[key]
                assert link.busy_cycles == twin.busy_cycles
                assert link.utilization(sim.now) == twin.utilization(sim.now)
        if observed:
            # The last packet closed every epoch that had ended.
            sampled_to = telemetry.closes_at - EPOCH
            assert sampled_to == sim.now // EPOCH * EPOCH
            assert _link_series(telemetry) == _expected_series(
                oracle, range(0, sampled_to + 1, EPOCH))
            # Observing keeps no history of its own on the links.
            bare_sim, bare, bare_oracle = _bare_network()
            _drive(bare_sim, bare, bare_oracle, packets,
                   random.Random(packets))
            assert _retained(bare) == retained[packets]
    # Twice the packets, the same order of history: what is retained
    # depends on the traffic in flight when a run stops, not on its
    # length.
    assert retained[10_000] < 1.5 * retained[5_000]


def _install_mid_epoch(seed):
    """A network after 2,000 random sends and an observer with telemetry
    installed 137 cycles later, mid-epoch."""
    sim, net, oracle = _bare_network()
    rng = random.Random(seed)
    _drive(sim, net, oracle, 2_000, rng)  # each send forgets behind its head
    sim.run(until=sim.now + 137)
    installed_at = sim.now
    assert installed_at % EPOCH  # mid-epoch, or the case is not the hard one
    telemetry = _observe(sim, net)
    assert telemetry.closes_at == (installed_at // EPOCH + 1) * EPOCH
    return sim, net, oracle, rng, telemetry


def test_an_observer_installed_mid_run_samples_from_there_on():
    sim, net, oracle, rng, telemetry = _install_mid_epoch(11)
    installed_at = sim.now
    _drive(sim, net, oracle, 2_000, rng)  # must not ask below the floor
    telemetry.flush()
    first_boundary = (installed_at // EPOCH + 1) * EPOCH
    boundaries = [installed_at,
                  *range(first_boundary, sim.now // EPOCH * EPOCH + 1, EPOCH),
                  sim.now]
    # The epoch the observer arrived in is sampled from its arrival (a
    # partial epoch, over its true length); nothing earlier is.
    series = _link_series(telemetry)
    assert series == _expected_series(oracle, boundaries)
    assert min(end for points in series.values()
               for end, _fraction in points) == first_boundary


def test_a_flush_before_any_packet_is_the_observers_first_contact():
    """The busy totals are taken when the link series is registered, not
    at the first packet: a flush before any packet reads the windows
    still in flight from the cycle the observer arrived, and a flushed
    partial epoch never moves the totals."""
    sim, net, oracle, rng, telemetry = _install_mid_epoch(12)
    installed_at = sim.now
    sim.run(until=installed_at + 50)  # windows still in flight run on
    telemetry.flush()
    flushed = _expected_series(oracle, [installed_at, sim.now])
    assert flushed and _link_series(telemetry) == flushed
    _drive(sim, net, oracle, 2_000, rng)
    telemetry.flush()
    first_boundary = (installed_at // EPOCH + 1) * EPOCH
    boundaries = [installed_at,
                  *range(first_boundary, sim.now // EPOCH * EPOCH + 1, EPOCH),
                  sim.now]
    assert _link_series(telemetry) == _expected_series(oracle, boundaries)
