"""The network service: datagrams through NICs, a wire, and sessions."""

import pytest

from repro.m3.system import M3System
from repro.m3.services.netserv import NetClient, start_network
from repro.obs import SloMonitor, SloSpec


@pytest.fixture
def net_system():
    system = M3System(pe_count=6).boot(with_fs=False)
    servers = start_network(system)
    return system, servers


def test_datagram_crosses_the_wire(net_system):
    system, servers = net_system

    def receiver(env):
        client = yield from NetClient.connect(env, "net2")
        yield from client.request("bind", 9)
        src, payload = yield from client.recv_blocking()
        return src, bytes(payload)

    def sender(env):
        client = yield from NetClient.connect(env, "net")
        yield from client.request("bind", 7)
        yield from client.request("send_to", 9, b"hello over the wire")
        return ()

    receiver_vpe = system.spawn(receiver, name="rx-app")
    # bounded: the receiver polls forever, so "run until idle" never is
    system.sim.run(until=system.sim.now + 30_000)
    system.run_app(sender, name="tx-app")
    src, payload = system.wait(receiver_vpe)
    assert (src, payload) == (7, b"hello over the wire")
    assert servers[0].frames_dropped == 0
    assert servers[1].frames_routed == 1


def test_ping_pong_round_trip(net_system):
    system, _servers = net_system

    def ponger(env):
        client = yield from NetClient.connect(env, "net2")
        yield from client.request("bind", 20)
        src, payload = yield from client.recv_blocking()
        yield from client.request("send_to", src, b"pong:" + bytes(payload))
        return ()

    def pinger(env):
        client = yield from NetClient.connect(env, "net")
        yield from client.request("bind", 10)
        yield from client.request("send_to", 20, b"ping-1")
        src, payload = yield from client.recv_blocking()
        return src, bytes(payload)

    ponger_vpe = system.spawn(ponger, name="ponger")
    system.sim.run(until=system.sim.now + 30_000)
    src, payload = system.run_app(pinger, name="pinger")
    assert (src, payload) == (20, b"pong:ping-1")
    system.wait(ponger_vpe)


def test_unbound_destination_is_dropped(net_system):
    system, servers = net_system

    def sender(env):
        client = yield from NetClient.connect(env, "net")
        yield from client.request("bind", 5)
        yield from client.request("send_to", 4242, b"nobody home")
        yield 50_000  # let the frame arrive and be dropped
        return ()

    system.run_app(sender, name="tx")
    assert servers[1].frames_dropped == 1
    assert servers[1].frames_routed == 0


def test_port_conflicts_and_oversized_datagrams(net_system):
    system, _servers = net_system

    def app(env):
        a = yield from NetClient.connect(env, "net")
        yield from a.request("bind", 30)
        errors = []
        b = yield from NetClient.connect(env, "net")
        try:
            yield from b.request("bind", 30)
        except RuntimeError as exc:
            errors.append("conflict" if "already bound" in str(exc) else "?")
        # 250B fits the request message but exceeds the datagram limit
        try:
            yield from a.request("send_to", 30, b"x" * 250)
        except RuntimeError as exc:
            errors.append("toobig" if "too large" in str(exc) else "?")
        return errors

    assert system.run_app(app) == ["conflict", "toobig"]


def test_frames_move_real_bytes_through_dma(net_system):
    """White-box: the datagram bytes exist in the receiving service's
    DRAM buffer, placed there by the NIC's DMA write."""
    system, servers = net_system

    def receiver(env):
        client = yield from NetClient.connect(env, "net2")
        yield from client.request("bind", 77)
        return (yield from client.recv_blocking())

    def sender(env):
        client = yield from NetClient.connect(env, "net")
        yield from client.request("bind", 70)
        yield from client.request("send_to", 77, b"dma-visible")
        return ()

    receiver_vpe = system.spawn(receiver, name="rx")
    system.sim.run(until=system.sim.now + 30_000)
    system.run_app(sender, name="tx")
    system.wait(receiver_vpe)

    server = servers[1]
    region = server.vpe.captable.get(server.buffer.selector).obj
    dram = system.platform.dram.memory
    from repro.m3.services.netserv import RX_BASE

    raw = dram.read(region.address + RX_BASE, 64)
    assert b"dma-visible" in raw


def test_rapid_sends_do_not_clobber_in_flight_frames(net_system):
    """Regression: every frame gets its own TX slot.  The NIC DMA-reads
    a frame *after* acknowledging the command, so back-to-back sends
    through one slot would overwrite frames still being read."""
    system, servers = net_system
    payloads = [b"frame-%d" % i for i in range(4)]

    def receiver(env):
        client = yield from NetClient.connect(env, "net2")
        yield from client.request("bind", 91)
        got = []
        for _ in payloads:
            _src, payload = yield from client.recv_blocking()
            got.append(bytes(payload))
        return got

    def sender(env):
        client = yield from NetClient.connect(env, "net")
        yield from client.request("bind", 90)
        for payload in payloads:
            yield from client.request("send_to", 91, payload)
        return ()

    receiver_vpe = system.spawn(receiver, name="rx")
    system.sim.run(until=system.sim.now + 30_000)
    system.run_app(sender, name="tx")
    assert system.wait(receiver_vpe) == payloads
    assert servers[1].frames_routed == len(payloads)
    assert servers[1].frames_dropped == 0
    # all slots returned to the free list once the txdone irqs drained
    system.sim.run(until=system.sim.now + 30_000)
    assert sorted(servers[0]._tx_free) == list(range(8))


def test_concurrent_sessions_share_the_tx_ring(net_system):
    """Two client sessions sending at the same time: all datagrams
    arrive intact, none truncated or cross-wired."""
    system, servers = net_system

    def receiver(env):
        client = yield from NetClient.connect(env, "net2")
        yield from client.request("bind", 80)
        got = set()
        for _ in range(4):
            src, payload = yield from client.recv_blocking()
            got.add((src, bytes(payload)))
        return sorted(got)

    def sender(env, port, tag):
        client = yield from NetClient.connect(env, "net")
        yield from client.request("bind", port)
        for index in range(2):
            yield from client.request(
                "send_to", 80, b"%s-%d" % (tag, index)
            )
        return ()

    receiver_vpe = system.spawn(receiver, name="rx")
    system.sim.run(until=system.sim.now + 30_000)
    a = system.spawn(sender, 71, b"alpha", name="tx-a")
    b = system.spawn(sender, 72, b"beta", name="tx-b")
    system.wait(a)
    system.wait(b)
    assert system.wait(receiver_vpe) == [
        (71, b"alpha-0"), (71, b"alpha-1"),
        (72, b"beta-0"), (72, b"beta-1"),
    ]
    assert servers[1].frames_dropped == 0


def test_runt_frame_is_dropped_not_crashing(net_system):
    """Regression: a frame shorter than the port header is counted as
    dropped instead of killing the service with a struct.error."""
    system, servers = net_system
    nic0 = servers[0].nic
    nic0.wire.transmit(nic0, b"xy")  # 2 bytes: no room for <HH
    system.sim.run(until=system.sim.now + 30_000)
    assert servers[1].frames_dropped == 1
    assert servers[1].frames_routed == 0

    # the service survived and still routes well-formed datagrams
    def receiver(env):
        client = yield from NetClient.connect(env, "net2")
        yield from client.request("bind", 60)
        return (yield from client.recv_blocking())

    def sender(env):
        client = yield from NetClient.connect(env, "net")
        yield from client.request("bind", 61)
        yield from client.request("send_to", 60, b"still alive")
        return ()

    receiver_vpe = system.spawn(receiver, name="rx")
    system.sim.run(until=system.sim.now + 30_000)
    system.run_app(sender, name="tx")
    src, payload = system.wait(receiver_vpe)
    assert (src, bytes(payload)) == (61, b"still alive")


def test_tx_slot_survives_send_failure(net_system):
    """Regression: a failure after the TX slot is popped (buffer write
    or NIC command send raising) must return the slot to the free list.
    Pre-fix, each error leaked one slot and the ring drained to empty,
    wedging the service with "tx ring full" forever."""
    from repro.m3.services.netserv import TX_SLOTS

    system, servers = net_system
    server = servers[0]
    real_nic_cmd = server.nic_cmd

    class WedgedGate:
        def call(self, payload, reply_gate, length=None):
            raise ValueError("nic wedged")
            yield  # pragma: no cover - generator shape

    def app(env):
        client = yield from NetClient.connect(env, "net")
        yield from client.request("bind", 40)
        # Drive one failing send per TX slot, plus one more: pre-fix
        # the ring is empty after TX_SLOTS errors and the final error
        # flips from "nic wedged" to "tx ring full".
        server.nic_cmd = WedgedGate()
        errors = []
        for _ in range(TX_SLOTS + 1):
            try:
                yield from client.request("send_to", 41, b"doomed")
            except RuntimeError as exc:
                errors.append(str(exc))
        server.nic_cmd = real_nic_cmd
        # The ring must be whole again: a real send still goes out.
        sent = yield from client.request("send_to", 41, b"recovered")
        return errors, sent

    errors, sent = system.run_app(app, name="tx-err")
    assert errors == ["nic wedged"] * (TX_SLOTS + 1)
    assert sent == len(b"recovered")
    system.sim.run(until=system.sim.now + 30_000)  # drain txdone
    assert sorted(server._tx_free) == list(range(TX_SLOTS))


def test_tx_command_credits_are_refunded(net_system):
    """Regression: the NIC command gate has finite credits and the NIC
    used to *ack* tx commands without replying, so credits never came
    back — any netserv instance went silent after max_credits lifetime
    sends (MissingCredits crashed the service).  The NIC now replies to
    commands, refunding the credit, so the lifetime send count is
    unbounded."""
    system, servers = net_system
    count = 3 * 8 + 1  # well past any plausible credit budget

    def receiver(env):
        client = yield from NetClient.connect(env, "net2")
        yield from client.request("bind", 95)
        got = 0
        for _ in range(count):
            yield from client.recv_blocking()
            got += 1
        return got

    def sender(env):
        client = yield from NetClient.connect(env, "net")
        yield from client.request("bind", 94)
        for index in range(count):
            yield from client.request("send_to", 95, b"n%d" % index)
        return ()

    receiver_vpe = system.spawn(receiver, name="rx")
    system.sim.run(until=system.sim.now + 30_000)
    system.run_app(sender, name="tx")
    assert system.wait(receiver_vpe) == count
    assert servers[0].nic.frames_sent == count


def test_interrupts_outlive_any_credit_count(net_system):
    """Regression: the service *acks* NIC interrupts and never replies,
    so nothing refunds the IRQ endpoint's send credits.  With a finite
    count (it was 4096) a NIC went silent for life once they were
    spent: ``txdone`` stopped arriving, the TX ring drained and every
    sender saw "tx ring full" forever.  The endpoint's credits are
    unlimited now, so the lifetime datagram count is unbounded."""
    from repro.dtu.registers import UNLIMITED_CREDITS
    from repro.hw.device import IRQ_SEND_EP
    from repro.m3.services.netserv import TX_SLOTS

    system, servers = net_system
    count = 4_200  # past 4096 interrupts on either NIC

    def sender(env):
        client = yield from NetClient.connect(env, "net")
        yield from client.request("bind", 30)
        for _ in range(count):
            # Bounded retries: a ring that stays full is the failure,
            # not a reason to spin forever.
            for _attempt in range(20):
                try:
                    # Nobody is bound to port 31: net2 counts the frame
                    # as dropped, which still takes one "rx" interrupt.
                    yield from client.request("send_to", 31, b"x")
                    break
                except RuntimeError as exc:
                    assert "tx ring full" in str(exc)
                    yield 2_000
            else:
                raise AssertionError("tx ring stayed full")
        return ()

    system.run_app(sender, name="tx")
    system.sim.run(until=system.sim.now + 30_000)  # drain txdone
    assert servers[0].nic.frames_sent == count
    assert servers[1].frames_dropped == count  # every "rx" irq arrived
    assert sorted(servers[0]._tx_free) == list(range(TX_SLOTS))
    for server in servers:
        assert server.nic.dtu.ep(IRQ_SEND_EP).credits == UNLIMITED_CREDITS


def test_full_inbox_drops_and_counts(net_system):
    """Regression: a socket that never drains its inbox must not grow
    it without bound — frames beyond the configured depth are dropped
    and counted in frames_dropped."""
    system, servers = net_system
    receiver_server = servers[1]
    receiver_server.inbox_depth = 4

    def receiver(env):
        client = yield from NetClient.connect(env, "net2")
        yield from client.request("bind", 55)
        yield 200_000  # never drain: let the sender overrun the inbox
        got = []
        while True:
            datagram = yield from client.request("recv")
            if datagram is None:
                break
            got.append(bytes(datagram[1]))
        return got

    def sender(env):
        client = yield from NetClient.connect(env, "net")
        yield from client.request("bind", 56)
        for index in range(6):  # two more than the inbox holds
            yield from client.request("send_to", 55, b"flood-%d" % index)
        return ()

    receiver_vpe = system.spawn(receiver, name="rx")
    system.sim.run(until=system.sim.now + 30_000)
    system.run_app(sender, name="tx")
    got = system.wait(receiver_vpe)
    # Exactly the first inbox_depth frames survive, in order.
    assert got == [b"flood-%d" % index for index in range(4)]
    assert receiver_server.frames_dropped == 2
    assert receiver_server.frames_routed == 4


def test_an_overflowing_burst_is_visible_to_the_observer():
    """Datagram semantics (docs/protocols.md): the fifth frame into a
    depth-4 inbox is dropped without back-pressure — and the telemetry
    plane, an availability SLO and the instant log all see it."""
    system = M3System(pe_count=6, observe=True).boot(with_fs=False)
    obs = system.sim.obs
    telemetry = system.enable_telemetry(epoch=50_000)
    monitor = SloMonitor(obs, SloSpec(
        "net2-delivery", target=0.999,
        bad_series="net.net2.frames_dropped",
        total_series="noc.packets_injected"))
    receiver_server = start_network(system)[1]
    receiver_server.inbox_depth = 4

    def receiver(env):
        client = yield from NetClient.connect(env, "net2")
        yield from client.request("bind", 55)
        yield 200_000  # never drain
        return ()

    def sender(env):
        client = yield from NetClient.connect(env, "net")
        yield from client.request("bind", 56)
        for index in range(5):
            yield from client.request("send_to", 55, b"burst-%d" % index)
        return ()

    receiver_vpe = system.spawn(receiver, name="rx")
    system.sim.run(until=system.sim.now + 30_000)
    system.run_app(sender, name="tx")
    system.wait(receiver_vpe)
    telemetry.flush()

    assert receiver_server.frames_dropped == 1
    assert obs.counters["net.net2.frames_dropped"] == 1
    drops = [i for i in obs.instants if i.name == "frame_drop"]
    assert [(i.category, i.node, i.args) for i in drops] == [
        ("net", receiver_server.vpe.node,
         dict(service="net2", reason="overflow", port=55)),
    ]
    assert sum(point for _epoch, point
               in telemetry.points("net.net2.frames_dropped")) == 1
    assert sum(bad for _i, _end, bad, _total, _burn, _active
               in monitor.timeline) == 1


def test_close_reclaims_session_and_port(net_system):
    """Regression: sessions were never reclaimed — no close path meant
    a finished client's socket and bound port leaked forever.  close
    must unbind the port (rebindable by a later client) and drop the
    socket (further requests fail)."""
    system, servers = net_system
    server = servers[0]

    def app(env):
        a = yield from NetClient.connect(env, "net")
        yield from a.request("bind", 50)
        sessions_before = len(server.sockets)
        yield from a.request("close")
        outcomes = [
            len(server.sockets) == sessions_before - 1,
            50 not in server.ports,
        ]
        try:
            yield from a.request("bind", 50)
            outcomes.append("closed session still served")
        except RuntimeError as exc:
            outcomes.append(str(exc))
        # the port is free again: a fresh session can bind it
        b = yield from NetClient.connect(env, "net")
        yield from b.request("bind", 50)
        return outcomes

    socket_dropped, port_unbound, post_close = system.run_app(app)
    assert socket_dropped and port_unbound
    assert post_close == "no such session"


def test_rebind_frees_the_old_port(net_system):
    system, _servers = net_system

    def app(env):
        a = yield from NetClient.connect(env, "net")
        yield from a.request("bind", 50)
        yield from a.request("bind", 51)  # rebinding releases port 50
        b = yield from NetClient.connect(env, "net")
        yield from b.request("bind", 50)  # now free again
        return ()

    system.run_app(app)


def test_unbound_socket_sends_with_source_port_zero(net_system):
    system, _servers = net_system

    def receiver(env):
        client = yield from NetClient.connect(env, "net2")
        yield from client.request("bind", 33)
        return (yield from client.recv_blocking())

    def sender(env):
        client = yield from NetClient.connect(env, "net")
        # no bind: the datagram still goes out, src port 0
        yield from client.request("send_to", 33, b"anon")
        return ()

    receiver_vpe = system.spawn(receiver, name="rx")
    system.sim.run(until=system.sim.now + 30_000)
    system.run_app(sender, name="tx")
    src, payload = system.wait(receiver_vpe)
    assert (src, bytes(payload)) == (0, b"anon")
