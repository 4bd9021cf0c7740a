"""The inter-kernel RPC transport against a scripted peer: two bare
DTUs, one :class:`IkTransport` each, no kernel and no booted system
(only the last test, the credit-window regression as it was reported,
boots one)."""

import itertools

import pytest

from repro import params
from repro.dtu.registers import EndpointRegisters
from repro.faults import FaultPlan
from repro.hw import Platform
from repro.m3.kernel.ikrpc import (
    IK_RING_SLOTS,
    IK_SEND_CREDITS,
    IK_SLOT_BYTES,
    KERNEL_IK_EP,
    IkTransport,
)
from repro.m3.kernel.routing import SessionRouter

REPLY_EP = 1
PEER_EP = 3


class _Endpoint:
    """One side of the pair: a transport plus the two receive loops a
    kernel would run for it.  ``script(operation, args)`` returns the
    reply payload, or ``None`` to park the request."""

    def __init__(self, platform, me: int, other: int, script):
        self.sim = platform.sim
        self.dtu = platform.pe(me).dtu
        self.script = script
        self.executed = []
        self.parked = []
        self.stray_replies = 0
        self.dtu.configure_local(
            "configure", REPLY_EP,
            EndpointRegisters.receive_config(4096, IK_SLOT_BYTES, 64),
        )
        self.dtu.configure_local(
            "configure", KERNEL_IK_EP,
            EndpointRegisters.receive_config(8192, IK_SLOT_BYTES,
                                             IK_RING_SLOTS),
        )
        self.dtu.configure_local(
            "configure", PEER_EP,
            EndpointRegisters.send_config(
                target_node=other, target_ep=KERNEL_IK_EP, label=me,
                credits=IK_SEND_CREDITS, msg_size=IK_SLOT_BYTES,
            ),
        )
        peers = {other: PEER_EP}
        self.dead_peers = set()
        router = SessionRouter(me, peers, self.dead_peers, {}, lambda _: 0)
        self.ik = IkTransport(
            self.sim, platform.pe(me), me, peers, self.dead_peers, router,
            REPLY_EP, itertools.count(1),
        )
        self.sim.process(self._serve(), f"ep{me}.serve")
        self.sim.process(self._collect(), f"ep{me}.collect")

    def _serve(self):
        while True:
            slot, message = yield from self.dtu.wait_message(KERNEL_IK_EP)
            admitted = self.ik.admit(slot, message)
            if admitted is None:
                continue
            self.executed.append(admitted)
            payload = self.script(*admitted)
            if payload is None:
                self.parked.append(slot)
            else:
                self.ik.reply(slot, payload)

    def _collect(self):
        while True:
            slot, message = yield from self.dtu.wait_message(REPLY_EP)
            self.dtu.ack_message(REPLY_EP, slot)
            continuation = self.ik.complete(message.label)
            if continuation is None:
                self.stray_replies += 1
            else:
                continuation(message.payload)

    @property
    def credits(self) -> int:
        return self.dtu.ep(PEER_EP).credits


def _pair(script=lambda operation, args: ("ok", args), plan=None):
    platform = Platform.build(pe_count=2)
    platform.enable_reliable_messaging()
    if plan is not None:
        plan.install(platform)
    client = _Endpoint(platform, 0, 1, script)
    server = _Endpoint(platform, 1, 0, script)
    return platform.sim, client, server


def _quiesced(sim, *endpoints) -> bool:
    return sim.pending_events == 0 and all(
        end.ik.idle and end.credits == IK_SEND_CREDITS for end in endpoints
    )


def test_dropped_reply_is_retried_under_the_same_id_and_replayed():
    """The first reply is lost in the NoC past the RPC timeout: the
    retry carries the same negotiation id, the peer recognises it,
    does *not* run the handler again and replays the cached reply."""
    plan = FaultPlan(seed=1).drop(
        1.0, kinds=("reply",), window=(0, params.IK_RPC_TIMEOUT_CYCLES)
    )
    sim, client, server = _pair(plan=plan)
    answers = []
    client.ik.request(1, "create_vpe", ("x", None), answers.append)
    sim.run()

    assert answers == [("ok", ("x", None))]
    assert server.executed == [("create_vpe", ("x", None))]  # once
    assert client.ik.retries == 1 and server.ik.duplicates == 1
    (_cycle, negotiation, attempt), = client.ik.retry_log
    assert (negotiation, attempt) == (1, 2)  # the id of the first copy
    # The DTU eventually gets the first reply through as well; by then
    # the call is complete and the label means nothing any more.
    assert client.stray_replies == 1
    assert client.ik.timeouts == 0
    assert _quiesced(sim, client, server)


def test_duplicate_of_a_parked_request_is_acked_and_dropped():
    """A request the peer parked (a cross-domain wait) is re-polled:
    every copy is acknowledged without running the handler again or
    producing a reply; the one reply comes from the original slot."""
    sim, client, server = _pair(script=lambda operation, args: None)
    answers = []
    client.ik.request(1, "vpe_wait", (7,), answers.append, no_timeout=True)
    sim.run(until=6 * params.IK_RPC_TIMEOUT_CYCLES)

    assert answers == [] and not client.ik.idle
    assert server.executed == [("vpe_wait", (7,))]
    assert server.ik.duplicates == client.ik.retries >= 2
    assert server.dtu.ringbuffer(KERNEL_IK_EP).occupied == 1  # the original
    # Every re-poll spent a credit that no reply refilled.
    assert client.credits == IK_SEND_CREDITS - 1 - client.ik.retries

    (slot,) = server.parked
    server.ik.reply(slot, ("ok", 0))
    sim.run()
    assert answers == [("ok", 0)]
    assert _quiesced(sim, client, server)


def test_exhausted_attempts_give_a_timeout_verdict_and_refund_credits():
    sim, client, server = _pair(script=lambda operation, args: None)
    answers = []
    client.ik.request(1, "heartbeat", (0,), answers.append, max_attempts=3)
    sim.run(until=20 * params.IK_RPC_TIMEOUT_CYCLES)

    ((status, detail),) = answers
    assert status == "timeout" and "no reply after 3 attempts" in detail
    assert client.ik.timeouts == 1 and client.ik.retries == 2
    assert client.ik.idle
    assert client.credits == IK_SEND_CREDITS


def test_requests_beyond_the_credit_window_wait_their_turn():
    """More concurrent requests than send credits: the surplus waits in
    the per-peer FIFO and goes out, in order, as replies return
    credits."""
    sim, client, server = _pair()
    answers = []
    for index in range(IK_SEND_CREDITS + 4):
        client.ik.request(1, "noop", (index,), answers.append)
    assert client.credits == 0
    sim.run()

    assert [args for _op, args in server.executed] == \
        [(index,) for index in range(IK_SEND_CREDITS + 4)]
    assert len(answers) == IK_SEND_CREDITS + 4
    assert client.ik.requests_sent == IK_SEND_CREDITS + 4
    assert client.ik.retries == 0
    assert _quiesced(sim, client, server)


def test_fail_peer_errs_every_continuation_and_cancels_every_timer():
    sim, client, server = _pair(script=lambda operation, args: None)
    answers = []
    for index in range(IK_SEND_CREDITS + 2):  # two wait in the FIFO
        client.ik.request(1, "vpe_wait", (index,), answers.append,
                          no_timeout=True)
    sim.run(until=params.IK_RPC_TIMEOUT_CYCLES // 2)
    assert answers == [] and len(server.parked) == IK_SEND_CREDITS

    client.dead_peers.add(1)
    assert client.ik.fail_peer(1, "test") == []
    assert answers == [("err", "kernel domain 1 failed: test")] * \
        (IK_SEND_CREDITS + 2)
    assert client.ik.idle and client.credits == IK_SEND_CREDITS
    # A late request fails fast instead of being sent.
    client.ik.request(1, "noop", (), answers.append)
    sim.run()
    assert answers[-1] == ("err", "kernel domain 1 failed")
    assert sim.pending_events == 0

    # The other side drops what it had parked for the dead kernel.
    abandoned = server.ik.fail_peer(0, "test")
    assert sorted(abandoned) == sorted(server.parked)
    assert server.ik.idle
    assert server.dtu.ringbuffer(KERNEL_IK_EP).occupied == 0


@pytest.mark.parametrize("reliable", [False, True])
def test_seventeenth_concurrent_rpc_to_one_peer_is_not_lost(reliable):
    """Regression: with ``IK_SEND_CREDITS = 16``, the seventeenth
    outstanding request to one peer used to raise ``MissingCredits``
    out of the kernel loop, leaking its continuation and over-counting
    ``ik_requests_sent``."""
    from repro.m3.system import M3System

    system = M3System(pe_count=8, kernel_count=2, reliable=reliable)
    system.boot(with_fs=False)
    k0, k1 = system.kernels
    answers = []
    for _ in range(IK_SEND_CREDITS + 1):
        k0.ik.request(1, "heartbeat", (0,), answers.append)
    system.sim.run()

    assert answers == [("ok", ("alive", 1))] * (IK_SEND_CREDITS + 1)
    assert k0.ik_requests_sent == IK_SEND_CREDITS + 1
    assert k1.ik.requests_served == IK_SEND_CREDITS + 1
    assert k0.ik.idle and k1.ik.idle
    assert k0.dtu.ep(k0.peers[1]).credits == IK_SEND_CREDITS
    assert system.sim.pending_events == 0
