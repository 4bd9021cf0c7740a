"""Unit tests for the network facade."""

import pytest

from repro.noc import MeshTopology, Network, Packet
from repro.noc.network import PACKET_HEADER_BYTES
from repro.sim import Simulator


def _network(width=4, height=4, hop=3, bw=8):
    sim = Simulator()
    net = Network(sim, MeshTopology(width, height), hop_cycles=hop, bytes_per_cycle=bw)
    return sim, net


def test_delivery_invokes_handler_with_packet():
    sim, net = _network()
    received = []
    net.attach(3, received.append)
    packet = Packet(source=0, destination=3, kind="message", size_bytes=64)
    net.send(packet)
    sim.run()
    assert received == [packet]


def test_delivery_latency_single_hop():
    sim, net = _network(hop=3, bw=8)
    net.attach(1, lambda p: None)
    packet = Packet(source=0, destination=1, kind="message", size_bytes=48)
    completion = net.send(packet)
    # 1 hop * 3 cycles + (48+16)/8 = 8 serialisation cycles
    assert completion == 3 + (48 + PACKET_HEADER_BYTES) // 8


def test_delivery_latency_grows_with_hops():
    sim, net = _network(hop=3, bw=8)
    net.attach(3, lambda p: None)
    one_hop = net.delivery_time(Packet(0, 1, "message", 0))
    sim2, net2 = _network(hop=3, bw=8)
    net2.attach(3, lambda p: None)
    three_hops = net2.delivery_time(Packet(0, 3, "message", 0))
    assert three_hops - one_hop == 2 * 3


def test_contention_serializes_packets_on_shared_link():
    sim, net = _network(hop=0, bw=8)
    arrivals = []
    net.attach(1, lambda p: arrivals.append((sim.now, p.packet_id)))
    a = Packet(0, 1, "message", 8 * 10 - PACKET_HEADER_BYTES)  # 10 cycles
    b = Packet(0, 1, "message", 8 * 10 - PACKET_HEADER_BYTES)
    net.send(a)
    net.send(b)
    sim.run()
    assert arrivals == [(10, a.packet_id), (20, b.packet_id)]


def test_disjoint_paths_do_not_interfere():
    sim, net = _network(hop=1, bw=8)
    net.attach(1, lambda p: None)
    net.attach(14, lambda p: None)
    t1 = net.delivery_time(Packet(0, 1, "message", 800))
    t2 = net.delivery_time(Packet(15, 14, "message", 800))
    assert t1 == t2  # same geometry, no shared links


def test_send_without_handler_raises():
    sim, net = _network()
    with pytest.raises(RuntimeError):
        net.send(Packet(0, 5, "message", 8))


def test_send_without_handler_leaves_no_trace():
    # The handler is resolved before anything is reserved or counted: a
    # packet the NoC refuses must not occupy links or show in the stats.
    sim, net = _network()
    with pytest.raises(RuntimeError):
        net.send(Packet(0, 5, "message", 8))
    assert all(link.packets == 0 for _key, link in net.iter_links())
    assert net.packets_injected == 0 and net.bytes_injected == 0
    assert net.utilization_report() == {}


def test_double_attach_rejected():
    sim, net = _network()
    net.attach(2, lambda p: None)
    with pytest.raises(ValueError):
        net.attach(2, lambda p: None)


def test_transfer_event_and_ledger_tag():
    sim, net = _network(hop=3, bw=8)
    net.attach(2, lambda p: None)

    def sender():
        yield net.transfer(Packet(0, 2, "mem_write", 240), tag="xfer")
        return sim.now

    finish = sim.run_process(sender())
    assert finish == sim.ledger.total("xfer")
    assert finish == 2 * 3 + (240 + PACKET_HEADER_BYTES) // 8


def test_self_send_loops_back():
    sim, net = _network(hop=3, bw=8)
    got = []
    net.attach(0, got.append)
    completion = net.send(Packet(0, 0, "message", 8))
    assert completion == 3 + (8 + PACKET_HEADER_BYTES) // 8
    sim.run()
    assert len(got) == 1


def test_utilization_report_only_lists_used_links():
    sim, net = _network(hop=0, bw=8)
    net.attach(1, lambda p: None)
    net.send(Packet(0, 1, "message", 64))
    sim.run()
    report = net.utilization_report()
    assert set(report) == {(0, 1)}
    assert 0 < report[(0, 1)] <= 1.0


def test_loopback_uses_a_real_link():
    sim, net = _network(hop=3, bw=8)
    net.attach(0, lambda p: None)
    net.send(Packet(0, 0, "message", 64))
    sim.run()
    # Self-traffic shows up in per-link stats like any other traffic.
    link = net.link(0, 0)
    assert link.packets == 1
    assert (0, 0) in net.utilization_report()


def test_loopback_traffic_queues():
    sim, net = _network(hop=3, bw=8)
    arrivals = []
    net.attach(0, lambda p: arrivals.append(sim.now))
    size = 8 * 10 - PACKET_HEADER_BYTES  # 10 serialisation cycles
    net.send(Packet(0, 0, "message", size))
    net.send(Packet(0, 0, "message", size))
    sim.run()
    # Second packet waits for the loopback link, just like a wire.
    assert arrivals == [13, 23]


def test_fault_verdict_precedes_delivery_counters():
    from repro.faults.plan import FaultPlan

    sim, net = _network(hop=0, bw=8)
    delivered = []
    net.attach(1, delivered.append)
    FaultPlan(seed=7).drop(1.0).install(net)
    net.send(Packet(0, 1, "message", 64))
    sim.run()
    # The packet was injected but never delivered: the injection
    # counters record it, the delivery counters do not.
    assert delivered == []
    assert net.packets_injected == 1 and net.bytes_injected == 64
    assert net.packets_sent == 0 and net.bytes_sent == 0
    assert net.packets_lost == 1


def test_counters_agree_without_faults():
    sim, net = _network()
    net.attach(3, lambda p: None)
    net.send(Packet(0, 3, "message", 64))
    net.send(Packet(0, 3, "message", 32))
    sim.run()
    assert net.packets_injected == net.packets_sent == 2
    assert net.bytes_injected == net.bytes_sent == 96
