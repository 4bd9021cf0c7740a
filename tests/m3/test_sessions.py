"""The service registry and session negotiation against scripted
peers: bare DTUs, a scripted "service" answering label-0
``open_session`` and a scripted peer kernel behind a real
:class:`IkTransport` — no ``Kernel``, no booted system (only the last
three tests, the regressions as they were reported, boot one)."""

import itertools

import pytest

from repro.dtu.dtu import DtuError
from repro.dtu.registers import EndpointKind, EndpointRegisters
from repro.hw import Platform
from repro.m3.kernel.capability import Capability, CapKind
from repro.m3.kernel.ikrpc import (
    IK_MSG_BYTES,
    IK_RING_SLOTS,
    IK_SEND_CREDITS,
    IK_SLOT_BYTES,
    KERNEL_IK_EP,
    IkTransport,
)
from repro.m3.kernel.objects import RecvGateObject, RemoteClientRef
from repro.m3.kernel.routing import SessionRouter
from repro.m3.kernel.sessions import Sessions
from repro.m3.kernel.syscalls import NO_REPLY, SyscallError
from repro.m3.kernel.vpe import VpeObject, VpeState
from repro.m3.lib.service import start_service
from repro.m3.services.kvserv import KvClient, KvServ
from repro.m3.system import M3System
from tests.m3.invariants import check_kernel_tables

KERNEL, SERVICE, CLIENT, PEER = 0, 1, 2, 3  # nodes; PEER is kernel id 3 too
SYSCALL_EP, REPLY_EP = 0, 1  # KERNEL_IK_EP is 2
PEER_EP = 3
FIRST_SRV_EP = 4  # the lowest endpoint the kernel DTU has nothing on
SERVICE_EP = 2


class _Rig:
    """A :class:`Sessions` on node 0's DTU with the two receive loops
    a kernel would run for it, one scripted service VPE and one
    scripted peer kernel.  ``verdicts`` are the service's answers to
    ``open_session`` in order (``None`` parks the request);
    ``peer(operation, args)`` is the peer kernel's reply payload."""

    def __init__(self, verdicts=(), peer=lambda operation, args: ("err", "no")):
        self.platform = platform = Platform.build(pe_count=4)
        self.sim = platform.sim
        self.dtu = dtu = platform.pe(KERNEL).dtu
        self.verdicts = list(verdicts)
        self.peer = peer
        self.asked = []    # open_session payloads the service saw
        self.held = []     # ... and the slots of those it parked
        self.replies = []  # late syscall answers: (vpe, slot, payload)
        for ep_index in (SYSCALL_EP, REPLY_EP):
            dtu.configure_local(
                "configure", ep_index,
                EndpointRegisters.receive_config(4096 * ep_index, 512, 64),
            )
        for node in (KERNEL, PEER):
            platform.pe(node).dtu.configure_local(
                "configure", KERNEL_IK_EP,
                EndpointRegisters.receive_config(8192, IK_SLOT_BYTES,
                                                 IK_RING_SLOTS),
            )
        for node, other in ((KERNEL, PEER), (PEER, KERNEL)):
            platform.pe(node).dtu.configure_local(
                "configure", PEER_EP,
                EndpointRegisters.send_config(
                    target_node=other, target_ep=KERNEL_IK_EP, label=node,
                    credits=IK_SEND_CREDITS, msg_size=IK_SLOT_BYTES,
                ),
            )
        peers, self.dead_peers = {PEER: PEER_EP}, set()
        ids = itertools.count(1)
        self.sessions = sessions = Sessions(
            self.sim, dtu, ids, lambda *reply: self.replies.append(reply)
        )
        sessions.router = SessionRouter(KERNEL, peers, self.dead_peers,
                                        sessions.services, sessions.depth)
        sessions.ik = self.ik = IkTransport(
            self.sim, platform.pe(KERNEL), KERNEL, peers, self.dead_peers,
            sessions.router, REPLY_EP, ids,
        )
        self.client = VpeObject("client", platform.pe(CLIENT), 7)
        self.server, self.rgate_sel = self.make_server("srv", 1)
        for loop in (self._collect, self._serve_peer, self._service,
                     self._peer_kernel):
            self.sim.process(loop(), loop.__name__)

    def make_server(self, name, vpe_id):
        """A VPE on the service node holding an activated receive gate."""
        vpe = VpeObject(name, self.platform.pe(SERVICE), vpe_id)
        vpe.state = VpeState.RUNNING
        rgate = RecvGateObject(256, 4, owner=vpe, ep_index=SERVICE_EP)
        vpe.pe.dtu.configure_local(
            "configure", SERVICE_EP, EndpointRegisters.receive_config(0, 256, 4)
        )
        return vpe, vpe.captable.insert(Capability(CapKind.RECV, rgate))

    def run(self, handler):
        """Drive one handler generator to its verdict."""
        return self.sim.run_process(handler)

    def register(self, name="kv", server=None, rgate_sel=None):
        return self.run(self.sessions.create_srv(
            server or self.server, 0, name,
            self.rgate_sel if rgate_sel is None else rgate_sel,
        ))

    def _collect(self):
        while True:
            slot, message = yield from self.dtu.wait_message(REPLY_EP)
            self.dtu.ack_message(REPLY_EP, slot)
            parked = self.sessions.complete(message.label)
            if parked is not None:
                parked[2](message.payload)
            else:
                continuation = self.ik.complete(message.label)
                if continuation is not None:
                    continuation(message.payload)

    def _serve_peer(self):
        """``srv_open`` requests of the peer kernel."""
        while True:
            slot, message = yield from self.dtu.wait_message(KERNEL_IK_EP)
            _operation, args = self.ik.admit(slot, message)
            try:
                yield from self.sessions.serve_srv_open(
                    slot, message.label, *args
                )
            except SyscallError as exc:
                self.ik.reply(slot, ("err", str(exc)))

    def _service(self):
        dtu = self.platform.pe(SERVICE).dtu
        while True:
            slot, message = yield from dtu.wait_message(SERVICE_EP)
            assert message.label == 0  # the kernel, nobody else
            self.asked.append(message.payload)
            verdict = self.verdicts.pop(0)
            if verdict is None:
                self.held.append(slot)
            else:
                dtu.reply(SERVICE_EP, slot, verdict, 16)

    def _peer_kernel(self):
        dtu = self.platform.pe(PEER).dtu
        while True:
            slot, message = yield from dtu.wait_message(KERNEL_IK_EP)
            dtu.reply(KERNEL_IK_EP, slot, self.peer(*message.payload),
                      IK_MSG_BYTES)

    def peer_asks(self, name, client_vpe):
        """The peer kernel sends us a ``srv_open``; returns where its
        answer will show up."""
        dtu = self.platform.pe(PEER).dtu
        dtu.configure_local("configure", REPLY_EP,
                            EndpointRegisters.receive_config(0, 512, 8))
        dtu.send(PEER_EP, ("srv_open", (name, client_vpe)), IK_MSG_BYTES,
                 reply_ep=REPLY_EP, reply_label=41)
        return lambda: dtu.fetch_message(REPLY_EP)


def _caps(vpe):
    return {cap.selector: cap for cap in vpe.captable.caps()}


def test_granted_session_is_obtained_from_the_service_capability():
    rig = _Rig(verdicts=[("ok", ())])
    service_sel = rig.register()
    service = rig.sessions.services["kv"]
    assert service.kernel_ep == FIRST_SRV_EP and service.owner is rig.server
    assert rig.server.captable.get(service_sel, CapKind.SERVICE) is service.cap

    assert rig.run(rig.sessions.open_session(rig.client, 5, "kv")) is NO_REPLY
    rig.sim.run()
    assert rig.asked == [("open_session", (1, rig.client.id))]
    (vpe, slot, (status, (session_sel, sgate_sel))), = rig.replies
    assert (vpe, slot, status) == (rig.client, 5, "ok")
    caps = _caps(rig.client)
    assert caps[session_sel].kind is CapKind.SESSION
    assert caps[sgate_sel].obj.target is service.rgate
    assert caps[sgate_sel].obj.label == 1
    # The "obtain" edges: the session hangs off the service capability
    # and the send gate off the session.
    assert caps[session_sel].parent is service.cap
    assert caps[sgate_sel].parent is caps[session_sel]
    assert service.sessions == {1: rig.client}
    assert not rig.sessions.parked and rig.sim.pending_events == 0


def test_denied_session_grants_nothing():
    rig = _Rig(verdicts=[("err", "full")])
    rig.register()
    rig.run(rig.sessions.open_session(rig.client, 5, "kv"))
    assert rig.sessions.depth("kv") == 1  # in flight toward the service
    rig.sim.run()
    assert rig.replies == [
        (rig.client, 5, ("err", "service 'kv' denied the session"))
    ]
    assert len(rig.client.captable) == 0
    assert rig.sessions.services["kv"].sessions == {}
    assert not rig.sessions.parked and rig.sessions.depth("kv") == 0


def test_unknown_name_is_refused_locally_then_probed_at_the_peers():
    probes = []

    def peer(operation, args):
        probes.append((operation, args))
        return ("ok", (4, PEER, 2, 256)) if args[0] == "far" else ("err", "no")

    rig = _Rig(peer=peer)
    assert rig.run(rig.sessions.open_session(rig.client, 5, "far")) is NO_REPLY
    rig.sim.run()
    (_vpe, _slot, (status, (_session_sel, sgate_sel))), = rig.replies
    stub = _caps(rig.client)[sgate_sel].obj.target
    assert status == "ok" and (stub.node, stub.ep_index) == (PEER, 2)
    session_cap = _caps(rig.client)[sgate_sel].parent
    assert session_cap.parent is None  # cross-domain: nothing to obtain from
    assert rig.sessions.owners == {"far": PEER}

    rig.run(rig.sessions.open_session(rig.client, 6, "nowhere"))
    rig.sim.run()
    assert rig.replies[-1] == (rig.client, 6, ("err", "no service 'nowhere'"))
    assert probes == [("srv_open", ("far", 7)), ("srv_open", ("nowhere", 7))]

    # A dead peer is not asked, and what it was known to own is forgotten.
    rig.dead_peers.add(PEER)
    rig.sessions.fail_peer(PEER)
    assert rig.sessions.owners == {}
    rig.run(rig.sessions.open_session(rig.client, 7, "far"))
    rig.sim.run()
    assert rig.replies[-1] == (rig.client, 7, ("err", "no service 'far'"))
    assert len(probes) == 2


def test_service_gone_mid_negotiation_answers_everyone_waiting():
    """The service's VPE exits with one local and one cross-domain
    ``open_session`` parked on it: both requesters get an error, the
    registry entry and its kernel endpoint are gone, and the name is
    ``no service`` from then on."""
    rig = _Rig(verdicts=[None, None])
    rig.register()
    rig.run(rig.sessions.open_session(rig.client, 5, "kv"))
    answer = rig.peer_asks("kv", 9)
    rig.sim.run()
    assert len(rig.held) == 2 and len(rig.sessions.parked) == 2
    assert rig.sessions.depth("kv") == 4  # 2 unserved + 2 negotiating

    rig.server.state = VpeState.DEAD
    rig.sessions.unregister(rig.server)
    rig.sim.run()
    gone = ("err", "service 'kv' is gone")
    assert rig.replies == [(rig.client, 5, gone)]
    assert answer()[1].payload == gone
    assert rig.sessions.services == {} and not rig.sessions.parked
    assert rig.dtu.eps[FIRST_SRV_EP].kind is EndpointKind.INVALID
    assert rig.ik.idle

    with pytest.raises(SyscallError, match="no service 'kv'"):
        rig.run(rig.sessions.serve_srv_open(0, PEER, "kv", 9))
    # A straggling reply of the dead service finds nothing parked.
    assert rig.sessions.complete(1) is None


def test_client_exit_drops_the_sessions_it_held():
    rig = _Rig(verdicts=[("ok", ())])
    rig.register()
    rig.run(rig.sessions.open_session(rig.client, 5, "kv"))
    rig.sim.run()
    assert rig.sessions.services["kv"].sessions == {1: rig.client}
    rig.sessions.unregister(rig.client)
    assert rig.sessions.services["kv"].sessions == {}
    assert "kv" in rig.sessions.services  # not its service


def test_unreachable_service_is_an_error_reply_not_a_kernel_crash():
    """The negotiation cannot be sent (the service's inbox took all
    the channel's credits): the requester gets an error, nothing stays
    parked."""
    rig = _Rig(verdicts=[None] * 4)
    rig.register()
    for slot in range(4):  # the gate has four slots, so four credits
        rig.run(rig.sessions.open_session(rig.client, slot, "kv"))
    with pytest.raises(SyscallError, match="'kv' is unreachable.*credits"):
        rig.run(rig.sessions.open_session(rig.client, 4, "kv"))
    assert len(rig.sessions.parked) == 4 and rig.replies == []


def test_peer_dying_mid_srv_open_voids_the_negotiation():
    rig = _Rig(verdicts=[None, ("ok", ())])
    rig.register()
    rig.peer_asks("kv", 9)
    rig.sim.run()
    (parked,) = rig.sessions.parked.values()
    assert parked.client == RemoteClientRef(PEER, 9)
    rig.sessions.services["kv"].sessions[8] = RemoteClientRef(PEER, 3)

    rig.dead_peers.add(PEER)
    assert len(rig.ik.fail_peer(PEER, "test")) == 1
    rig.sessions.fail_peer(PEER)
    assert not rig.sessions.parked
    assert rig.sessions.services["kv"].sessions == {}
    # The service answers after all: nobody is waiting for it.
    rig.platform.pe(SERVICE).dtu.reply(SERVICE_EP, rig.held[0], ("ok", ()), 16)
    rig.sim.run()
    assert rig.sessions.services["kv"].sessions == {}
    assert rig.ik.idle and rig.sim.pending_events == 0


def test_kernel_endpoints_are_reused_lowest_first():
    rig = _Rig()
    servers = {}
    for index, name in enumerate(("a", "b", "c")):
        servers[name], sel = rig.make_server(name, 10 + index)
        rig.register(name, servers[name], sel)
    eps = {name: s.kernel_ep for name, s in rig.sessions.services.items()}
    assert eps == {"a": FIRST_SRV_EP, "b": FIRST_SRV_EP + 1,
                   "c": FIRST_SRV_EP + 2}
    rig.sessions.unregister(servers["b"])
    rig.sessions.unregister(servers["a"])
    late, sel = rig.make_server("d", 20)
    rig.register("d", late, sel)
    assert rig.sessions.services["d"].kernel_ep == FIRST_SRV_EP
    # Every endpoint of the kernel DTU taken: refused, nothing registered.
    for index in range(len(rig.dtu.eps) - FIRST_SRV_EP - 2):
        rig.register(f"fill{index}", *rig.make_server(f"fill{index}", 30 + index))
    with pytest.raises(SyscallError, match="out of service endpoints"):
        rig.register("more", *rig.make_server("more", 99))
    assert "more" not in rig.sessions.services


# -- the regressions, as reported: a booted system ---------------------------


def test_dead_service_is_unregistered_and_does_not_crash_the_kernel():
    """Regression: the watchdog recovered a service's VPE but the name
    stayed registered; the next ``open_session`` parked forever and
    its negotiation raised ``TransferTimeout`` through the kernel
    loop, which killed the kernel."""
    system = M3System(pe_count=6, reliable=True).boot(with_fs=False)
    kernel = system.kernel
    server = start_service(system, KvServ("kv"))
    node = server.vpe.node

    def early(env):
        client = yield from KvClient.connect(env, "kv")
        yield from client.put("k", b"v")
        yield env.sim.delay(40_000)
        return env.dtu.ep(client.sgate.ep).kind

    def late(env):
        yield env.sim.delay(60_000 - env.sim.now)
        try:
            yield from KvClient.connect(env, "kv")
        except SyscallError as exc:
            return str(exc), env.sim.now

    kernel.failover.start_watchdog(period=5_000)
    system.sim.schedule(10_000 - system.sim.now,
                        lambda _: system.platform.pe(node).fail())
    first, second = system.spawn(early, name="early"), system.spawn(late)
    system.sim.run(until=400_000)
    kernel.failover.stop_watchdog()
    system.sim.run()

    system.raise_crashes()  # the kernel loop is alive
    assert kernel.failover.recoveries == 1 and system.platform.pe(node).failed
    assert "kv" not in kernel.services
    assert not kernel.sessions.parked
    reason, answered_at = second.exit_code
    assert reason == "no service 'kv'" and answered_at < 61_000
    # The early client's send gate hung off the service's capability:
    # recovery revoked it and cut the endpoint.
    assert first.exit_code is EndpointKind.INVALID


def test_retired_services_return_their_kernel_endpoint():
    """Regression: the kernel's service endpoints only grew, so a
    default 8-endpoint kernel served six registrations in its life."""
    system = M3System(pe_count=6).boot(with_fs=False)
    kernel = system.kernel
    for index in range(10):
        server = start_service(system, KvServ(f"kv{index}"))
        # Retire it exactly as the autoscaler's scale-down does.
        server.vpe.pe.occupant.interrupt("scaled-down")
        kernel.vpe_exited(server.vpe, 0)
        assert not kernel.services
    assert kernel.dtu.eps[2].kind is EndpointKind.INVALID


def test_dead_service_revokes_sessions_held_in_another_domain():
    """Regression: a client in another domain kept its session and send
    endpoint after the service's VPE died — its kernel roots them and
    was never told.  Its next request went to the wiped node, the DTU
    gave up on it with nobody waiting for that verdict, and the client
    stayed parked on its reply gate for good.  The owner's kernel now
    sends that kernel ``srv_gone``, which revokes them: the request
    fails in the client's own DTU."""
    system = M3System(pe_count=8, kernel_count=2,
                      reliable=True).boot(with_fs=False)
    k0, k1 = system.kernels
    node = start_service(system, KvServ("kv"), domain=0).vpe.node
    served = system.sim.event("served")

    def client(env):
        kv = yield from KvClient.connect(env, "kv")
        yield from kv.put("k", b"v")
        served.succeed()
        yield env.sim.delay(60_000)  # the watchdog recovers the service
        try:
            yield from kv.put("k", b"w")
        except DtuError as exc:
            return type(exc).__name__
        return "served"

    vpe = system.spawn(client, name="client", domain=1)
    system.sim.run(until_event=served)
    system.platform.pe(node).fail()
    k0.failover.start_watchdog(period=5_000)
    system.sim.run(until=system.sim.now + 200_000)
    k0.failover.stop_watchdog()
    system.sim.run()

    assert k0.failover.recoveries == 1 and "kv" not in k0.services
    assert vpe.exit_code == "NoPermission"
    assert "kv" not in k1.sessions.owners
    check_kernel_tables(system)
