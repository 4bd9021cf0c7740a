"""Links keep the live tail of their occupancy history, not all of it.

``Link.forget_before`` folds windows nobody will ask about again into
one sentinel, and ``Network.send`` sweeps its links with it every
``FORGET_INTERVAL`` injections.  Two things must hold: whatever a link
still answers is exactly what an un-folded link answers, and what the
links retain is bounded by the sweep cadence instead of growing with
the packets simulated.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc import Link, MeshTopology, Network, Packet, XYRouter
from repro.noc.network import FORGET_INTERVAL
from repro.obs import Observer
from repro.sim import Simulator
from tests.noc.test_path_reservation import BANDWIDTH, HOP, Oracle

# -- one link ------------------------------------------------------------------

#: ("reserve", earliest, bytes) | ("forget", floor) | ("probe", t)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("reserve"), st.integers(min_value=0, max_value=400),
                  st.integers(min_value=0, max_value=300)),
        st.tuples(st.just("forget"), st.integers(min_value=0, max_value=500)),
        st.tuples(st.just("probe"), st.integers(min_value=-3, max_value=700)),
    ),
    min_size=1, max_size=60,
)


@settings(deadline=None, max_examples=300)
@given(steps)
def test_folded_link_answers_exactly_what_an_unfolded_twin_does(steps):
    folded, twin = Link(0, 1, BANDWIDTH), Link(0, 1, BANDWIDTH)
    floor = 0
    for step in steps:
        if step[0] == "reserve":
            assert folded.reserve(*step[1:]) == twin.reserve(*step[1:])
        elif step[0] == "forget":
            folded.forget_before(step[1])
            floor = max(floor, step[1])
        else:
            t = step[1]
            if t >= floor:
                assert folded.busy_within(t) == twin.busy_within(t)
                assert folded.utilization(t) == twin.utilization(t)
                continue
            try:  # below a floor: loud or right, never wrong
                answer = folded.busy_within(t)
            except ValueError:
                assert folded.windows_retained < twin.windows_retained
            else:
                assert answer == twin.busy_within(t)
        assert folded.busy_cycles == twin.busy_cycles
        assert folded.next_free == twin.next_free
        assert folded.packets == twin.packets
        assert folded.windows_retained <= twin.windows_retained


def test_forget_before_keeps_the_sentinel_and_raises_below_it():
    link = Link(0, 1, bytes_per_cycle=8)
    for start in (10, 30, 50, 70):
        link.reserve(start, 40)  # 5 cycles each, four separate windows
    assert link.windows_retained == 5  # the empty window at 0 + four
    link.forget_before(56)  # [10,15) [30,35) [50,55) ended; the last stays
    assert link.windows_retained == 2
    assert link.busy_cycles == 20 and link.next_free == 75
    assert link.busy_within(55) == 15
    assert link.busy_within(72) == 17
    assert link.utilization(100) == pytest.approx(0.2)
    for folded_away in (1, 12, 40, 54):
        with pytest.raises(ValueError, match="folded away"):
            link.busy_within(folded_away)
    assert link.busy_within(0) == 0  # nothing to know about no time at all


def test_the_newest_window_is_never_folded_into_the_sentinel():
    """It may still grow: a packet queueing behind it extends it in
    place, and ``[floor, its new end)`` must stay answerable."""
    link = Link(0, 1, bytes_per_cycle=8)
    link.reserve(10, 80)  # [10, 20)
    link.forget_before(20)
    link.reserve(20, 80)  # back to back: the window is now [10, 30)
    assert link.busy_within(25) == 15
    assert link.busy_within(20) == 10


# -- a network -------------------------------------------------------------------

WIDTH = HEIGHT = 4
NODES = WIDTH * HEIGHT
LINKS = 2 * (WIDTH * (HEIGHT - 1) + HEIGHT * (WIDTH - 1)) + NODES
LONGEST_PATH = WIDTH + HEIGHT - 2
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
    return sum(link.windows_retained for _key, link in net.iter_links())


def _expected_series(oracle, boundaries):
    """What ``Observer._record_epoch`` should have appended, read off
    the oracle's never-folded links: per link, ``(end, busy fraction)``
    for every epoch it was busy in."""
    series = {}
    for start, end in zip(boundaries, boundaries[1:]):
        for key, link in oracle.links.items():
            busy = link.busy_within(end) - link.busy_within(start)
            if busy:
                series.setdefault(key, []).append((end, busy / (end - start)))
    return series


@pytest.mark.parametrize("observed", [False, True], ids=["bare", "observed"])
def test_retained_windows_follow_the_sweep_cadence_not_the_packet_count(observed):
    retained = {}
    for packets in (5_000, 10_000):
        sim, net, oracle = _bare_network()
        if observed:
            obs = Observer.install(sim, epoch=EPOCH)
        _drive(sim, net, oracle, packets, random.Random(packets))
        retained[packets] = _retained(net)
        unfolded = sum(l.windows_retained for l in oracle.links.values())
        # Between two sweeps at most FORGET_INTERVAL packets open a
        # window per hop; a sweep leaves a link its sentinel, its newest
        # window and what is not over yet (an observed one also the
        # epoch still open, a few dozen packets here).
        assert retained[packets] <= FORGET_INTERVAL * LONGEST_PATH + 3 * LINKS
        assert retained[packets] < unfolded / 3
        for key, link in net.iter_links():
            if link.packets:
                twin = oracle.links[key]
                assert link.busy_cycles == twin.busy_cycles
                assert link.utilization(sim.now) == twin.utilization(sim.now)
        if observed:
            sampled_to = obs.links_sampled_to
            assert sampled_to == sim.now // EPOCH * EPOCH
            assert obs.link_series == _expected_series(
                oracle, range(0, sampled_to + 1, EPOCH))
    # Twice the packets, the same order of history: what is retained
    # depends on where in the sweep cycle a run stops, not on its length.
    assert retained[10_000] < 1.5 * retained[5_000]


def test_an_observer_installed_mid_run_samples_from_there_on():
    sim, net, oracle = _bare_network()
    rng = random.Random(11)
    _drive(sim, net, oracle, 2_000, rng)  # swept once, floor = then's now
    sim.run(until=sim.now + 137)
    installed_at = sim.now
    assert installed_at % EPOCH  # mid-epoch, or the case is not the hard one
    obs = Observer.install(sim, epoch=EPOCH)
    assert obs.links_sampled_to == installed_at
    _drive(sim, net, oracle, 2_000, rng)  # must not ask below the fold
    obs.sample_links(net, force=True)
    first_boundary = (installed_at // EPOCH + 1) * EPOCH
    boundaries = [installed_at,
                  *range(first_boundary, obs.links_sampled_to + 1, EPOCH),
                  sim.now]
    # The epoch the observer arrived in is sampled from its arrival (a
    # partial epoch, over its true length); nothing earlier is.
    assert obs.link_series == _expected_series(oracle, boundaries)
    assert min(end for series in obs.link_series.values()
               for end, _fraction in series) == first_boundary
