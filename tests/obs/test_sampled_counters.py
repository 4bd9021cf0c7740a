"""Counters sampled from the network equal counters pushed per packet.

``Network`` keeps ``packets_injected`` / ``packets_sent`` /
``packets_lost`` / ``bytes_injected`` whether or not anybody watches;
the observer *monitors* them instead of being told about every packet.
These tests replay a seeded packet schedule over a bare 4x4 mesh and
compare every ``noc.*`` reading with an oracle computed from the packet
list — what one ``count`` per packet used to leave — across the three
places sampling can go wrong: a packet exactly on an epoch boundary, an
observer installed mid-run, and telemetry enabled later still.
"""

import random
import types

import pytest

from repro.noc import MeshTopology, Network, Packet
from repro.obs import Observer, SloMonitor, SloSpec
from repro.sim import Simulator

EPOCH = 100
INSTALL_AT, TELEMETRY_AT = 155, 425
SERIES = ("noc.packets_injected", "noc.packets_delivered",
          "noc.packets_dropped", "noc.payload_bytes")


class _DropMarked:
    """A fault plan that drops exactly the packets whose payload says so."""

    def judge(self, packet, now, network):
        return ("drop" if packet.payload else "deliver"), 0


def _schedule(seed: int) -> list[tuple]:
    """``(cycle, source, destination, bytes, dropped)``, cycle-sorted:
    random traffic over cycles 0..1,199, a lossy stretch in epoch 7,
    and packets exactly on the boundaries of epochs 3, 5 and 8."""
    rng = random.Random(seed)
    packets = [
        (cycle, rng.randrange(16), rng.randrange(16), rng.randrange(1, 200),
         rng.random() < (0.5 if 700 <= cycle < 800 else 0.02))
        for cycle in sorted(rng.randrange(1200) for _ in range(300))
    ]
    packets += [(300, 0, 5, 64, False), (500, 1, 2, 8, True),
                (800, 15, 0, 32, False)]
    return sorted(packets)


def _oracle(packets, since: int) -> dict:
    """series -> {epoch: delta} over the packets sent at ``since`` or
    later: one point per epoch in which the counter moved."""
    series = {name: {} for name in SERIES}
    for cycle, _source, _destination, size, dropped in packets:
        if cycle < since:
            continue
        fate = "noc.packets_dropped" if dropped else "noc.packets_delivered"
        for name, n in (("noc.packets_injected", 1), (fate, 1),
                        ("noc.payload_bytes", size)):
            series[name][cycle // EPOCH] = \
                series[name].get(cycle // EPOCH, 0) + n
    return series


def _run(seed: int):
    sim = Simulator()
    network = Network(sim, MeshTopology(4, 4))
    network.fault_plan = _DropMarked()
    for node in range(16):
        network.attach(node, lambda packet: None)
    packets = _schedule(seed)
    state = {}

    def instrument(_):
        state["telemetry"] = sim.obs.enable_telemetry(epoch=EPOCH)
        state["slo"] = SloMonitor(
            sim.obs,
            SloSpec("delivery", target=0.9, bad_series="noc.packets_dropped",
                    total_series="noc.packets_injected"),
            windows=(("page", 1, 1, 2.0),),
        )

    sim.schedule(INSTALL_AT, lambda _: Observer.install(sim))
    sim.schedule(TELEMETRY_AT, instrument)
    for cycle, source, destination, size, dropped in packets:
        sim.schedule(cycle, lambda _, args=(source, destination, "msg", size,
                                            dropped):
                     network.send(Packet(*args)))
    sim.run()
    state["telemetry"].flush()
    return sim, network, packets, state


@pytest.mark.parametrize("seed", range(5))
def test_every_noc_reading_equals_the_per_packet_oracle(seed):
    sim, network, packets, state = _run(seed)
    telemetry = state["telemetry"]
    assert any(cycle % EPOCH == 0 and cycle > TELEMETRY_AT
               for cycle, *_rest in packets)
    # Cumulative counters: everything since the observer was installed.
    seen = _oracle(packets, INSTALL_AT)
    assert {name: value for name, value in sim.obs.counters.items()
            if name.startswith("noc.")} == \
        {name: sum(points.values()) for name, points in seen.items()}
    assert sim.obs.counters["noc.packets_injected"] < network.packets_injected
    # Epoch series: everything since telemetry was enabled, each packet
    # in the epoch of its own cycle — boundary packets in the new one.
    expected = _oracle(packets, TELEMETRY_AT)
    for name in SERIES:
        assert dict(telemetry.points(name)) == expected[name], name
    last = max(expected["noc.packets_injected"])
    for name in SERIES:
        for width in (1, 3, last + 1):
            assert telemetry.window_sum(name, last, width) == sum(
                delta for epoch, delta in expected[name].items()
                if last - width < epoch <= last
            )
    # The monitor saw each epoch complete when it closed: it pages at
    # the end of the first epoch that lost a fifth of its packets.
    burning = [
        epoch for epoch in sorted(expected["noc.packets_injected"])
        if expected["noc.packets_dropped"].get(epoch, 0)
        >= 0.2 * expected["noc.packets_injected"][epoch]
    ]
    fired = [alert for alert in state["slo"].alerts if alert[2] == "fire"]
    assert burning[0] == 7
    assert fired[0][:2] == ((burning[0] + 1) * EPOCH, "page")
    assert [row[:4] for row in state["slo"].timeline if row[0] == 7] == [
        (7, 800, expected["noc.packets_dropped"][7],
         expected["noc.packets_injected"][7])
    ]


def test_a_second_network_adds_to_the_same_counters():
    sim = Simulator()
    obs = Observer.install(sim)
    networks = [Network(sim, MeshTopology(2, 1)) for _ in range(2)]
    for network in networks:
        network.attach(0, lambda packet: None)
        network.attach(1, lambda packet: None)
        network.send(Packet(0, 1, "msg", 10))
    networks[1].send(Packet(1, 0, "msg", 5))
    assert obs.counters == {"noc.packets_injected": 3,
                            "noc.packets_delivered": 3,
                            "noc.payload_bytes": 25}


def test_a_monitored_total_sums_its_sources_by_attribute_path():
    """``monitor`` reads a dotted attribute of every source, from the
    values they hold at registration on; an instant closes the epochs
    that ended, so a total moved right after one lands in its epoch."""
    sim = Simulator()
    obs = Observer.install(sim)
    telemetry = obs.enable_telemetry(epoch=EPOCH)
    sources = [types.SimpleNamespace(ik=types.SimpleNamespace(retries=n))
               for n in (4, 1)]
    obs.monitor({"retries": "ik.retries"}, *sources)

    def retry(source):
        obs.instant("ik_retry", "ik")
        source.ik.retries += 1

    sim.schedule(50, lambda _: retry(sources[0]))
    sim.schedule(EPOCH, lambda _: retry(sources[1]))  # on the boundary
    sim.schedule(EPOCH, lambda _: retry(sources[0]))
    sim.run()
    telemetry.flush()
    assert obs.counters == {"retries": 3}
    assert telemetry.points("retries") == [(0, 1), (1, 2)]
