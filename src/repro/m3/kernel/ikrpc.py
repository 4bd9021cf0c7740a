"""The inter-kernel RPC transport (multi-kernel layouts only).

Requests ride ordinary DTU messages between kernel send gates; replies
come back on the kernel's standard reply endpoint, labelled with a
negotiation id like a session negotiation (see docs/protocols.md).

:class:`IkTransport` owns *all* of the protocol's state: the calls
awaiting an answer and their retry timers, the per-peer FIFO of calls
waiting for a send credit, the server-side inflight map and reply cache
that make requests idempotent, and the ``ik_*`` counters.  It is built
from what it uses, not from a ``Kernel``, so it runs against a scripted
peer on two bare DTUs.
"""

from __future__ import annotations

import collections
import dataclasses
import typing

from repro import params
from repro.sim.ledger import Tag

#: requests from peer kernels arrive on this endpoint of the kernel DTU.
KERNEL_IK_EP = 2
#: inter-kernel channel geometry: requests carry service lookups and
#: capability descriptors, so the slots match the reply ring's size.
IK_SLOT_BYTES = 512
IK_RING_SLOTS = 64
IK_MSG_BYTES = 256
#: per-peer in-flight request limit; with at most 3 peers the receive
#: ring (64 slots) can absorb every peer's burst at once.  Requests
#: beyond the window wait in the transport's per-peer FIFO.
IK_SEND_CREDITS = 16


@dataclasses.dataclass(slots=True, eq=False)
class _Call:
    """One request awaiting its answer, keyed by its negotiation id —
    which doubles as the kernel-level sequence number: it rides every
    copy as the reply label."""

    negotiation: int
    peer: int
    operation: str
    args: tuple
    continuation: typing.Callable
    no_timeout: bool
    base: int
    max_attempts: int
    #: copies put on the wire so far.
    attempts: int = 0
    #: the armed retry timer (reliable DTUs only).
    timer: object = None


class IkTransport:
    """Idempotent request/reply between one kernel and its peers."""

    def __init__(self, sim, pe, kernel_id: int, peers: typing.Mapping,
                 dead_peers: typing.Collection, router, reply_ep: int,
                 negotiation_ids: typing.Iterator[int]):
        self.sim = sim
        self.pe = pe
        self.dtu = pe.dtu
        self.kernel_id = kernel_id
        #: shared views of the owning kernel's membership: peer kernel
        #: id -> send-EP index on this DTU, and the peers declared dead.
        self.peers = peers
        self.dead_peers = dead_peers
        #: supplies/absorbs the depth rider (see repro.m3.kernel.routing).
        self.router = router
        #: where replies arrive; the kernel shares it with service
        #: replies — hence the shared id counter.
        self.reply_ep = reply_ep
        self._negotiation_ids = negotiation_ids
        #: client side: negotiation id -> call awaiting its answer.
        self._calls: dict[int, _Call] = {}
        #: client side: peer -> calls waiting for a send credit, FIFO.
        self._backlog = collections.defaultdict(collections.deque)
        #: server side: (sender kernel, negotiation) of requests still
        #: executing/parked -> their ring slot, plus a bounded cache of
        #: already-sent replies for re-answering duplicates without
        #: re-executing the operation.
        self._inflight: dict[tuple, int] = {}
        self._replied: collections.OrderedDict = collections.OrderedDict()
        self.requests_sent = 0
        self.requests_served = 0
        self.retries = 0
        self.timeouts = 0
        self.duplicates = 0
        #: fault-path-only record of ``(cycle, negotiation, attempt)``
        #: per client-side retransmit, for determinism checks.
        self.retry_log: list[tuple] = []

    @property
    def idle(self) -> bool:
        """Nothing is owed in either direction: no call awaits an
        answer (or a credit) and no admitted request awaits its reply."""
        return not self._calls and not self._inflight

    def live_peers(self) -> list[int]:
        """Peer kernel ids not declared dead, in id order."""
        return [peer for peer in sorted(self.peers)
                if peer not in self.dead_peers]

    # -- client side ------------------------------------------------------

    def request(self, peer: int, operation: str, args: tuple,
                continuation, no_timeout: bool = False,
                timeout_base: int = params.IK_RPC_TIMEOUT_CYCLES,
                max_attempts: int = params.IK_RPC_MAX_ATTEMPTS) -> None:
        """Send ``(operation, args)`` to a peer kernel; ``continuation``
        is a plain (non-blocking) callable run with the peer's reply
        payload, so the kernel loop never waits on a peer.

        On a reliable DTU the request becomes an idempotent RPC: a
        per-request timer retransmits the *same* negotiation id with
        capped exponential backoff, and a request unanswered through
        ``max_attempts`` completes with a ``("timeout", ...)`` verdict
        instead of hanging.  ``no_timeout`` requests — cross-domain
        waits, which legitimately stay open arbitrarily long — re-poll
        at the capped interval (the peer's dedup absorbs the copies)
        and are only failed by :meth:`fail_peer`.  On a best-effort DTU
        nothing is armed: fire-and-forget, cycle-identical to before.
        """
        if peer in self.dead_peers:
            # Fast-fail instead of waiting out a timeout against a peer
            # failover already declared dead.
            self.sim.call_soon(
                lambda _: continuation(
                    ("err", f"kernel domain {peer} failed")
                )
            )
            return
        call = _Call(next(self._negotiation_ids), peer, operation, args,
                     continuation, no_timeout, timeout_base, max_attempts)
        self._calls[call.negotiation] = call
        self.requests_sent += 1
        if self.sim.obs is not None:
            self.sim.obs.count(f"kernel{self.kernel_id}.ik_requests")
        self._transmit(call)

    def request_first(self, candidates, operation: str, args: tuple,
                      on_ok, on_exhausted) -> None:
        """Ask ``candidates`` (peer ids) in order until one answers
        ``"ok"``: ``on_ok(peer, detail)`` runs with the first success,
        ``on_exhausted()`` when every candidate refused or failed."""
        candidates = iter(candidates)
        peer = next(candidates, None)
        if peer is None:
            on_exhausted()
            return

        def completion(payload):
            status, detail = payload
            if status == "ok":
                on_ok(peer, detail)
            else:
                self.request_first(candidates, operation, args,
                                   on_ok, on_exhausted)

        self.request(peer, operation, args, completion)

    def complete(self, negotiation: int):
        """A reply labelled ``negotiation`` arrived.  Returns the
        continuation to run with its payload, or ``None`` when the
        label is not (or no longer) one of this transport's calls."""
        call = self._calls.pop(negotiation, None)
        if call is None:
            return None
        # Disarm the retry timer at once (an uncancelled timer would
        # also drag sim.now out) and reconcile the credits spent on
        # retransmits — kernel-level duplicates are acked, not replied
        # to, so they never refill the peer send endpoint on their own.
        if call.timer is not None:
            self.sim.cancel(call.timer)
        self._refund(call.peer, call.attempts - 1)
        self._drain(call.peer)
        return call.continuation

    def fail_peer(self, peer: int, reason: str) -> list[int]:
        """``peer`` is dead.  Errs the continuation of every call still
        awaiting its answer (which un-parks cross-domain waits on the
        dead domain) and drops the requests of its still being served
        or parked, returning their abandoned ring slots."""
        self._backlog.pop(peer, None)
        for negotiation in sorted(self._calls):
            call = self._calls[negotiation]
            if call.peer != peer:
                continue
            del self._calls[negotiation]
            if call.timer is not None:
                self.sim.cancel(call.timer)
            self._refund(peer, call.attempts)
            call.continuation(
                ("err", f"kernel domain {peer} failed: {reason}")
            )
        abandoned = []
        for key in sorted(k for k in self._inflight if k[0] == peer):
            slot = self._inflight.pop(key)
            self.dtu.ack_message(KERNEL_IK_EP, slot)
            abandoned.append(slot)
        return abandoned

    def _transmit(self, call: _Call) -> None:
        """Put one more copy of ``call`` on the wire — first send and
        retransmit alike — as soon as its peer endpoint has a credit;
        the FIFO only holds anything while the window is exhausted."""
        self._backlog[call.peer].append(call)
        self._drain(call.peer)

    def _drain(self, peer: int) -> None:
        """Send waiting calls while ``peer``'s endpoint has credits;
        run whenever one may have come back (reply, refund)."""
        queue = self._backlog[peer]
        ep = self.dtu.ep(self.peers[peer])
        while queue and ep.credits > 0:
            call = queue.popleft()
            if self._calls.get(call.negotiation) is call:
                self._send(call)

    def _send(self, call: _Call) -> None:
        self.sim.ledger.charge(Tag.OS, params.M3_KERNEL_REPLY_CYCLES)
        rider = self.router.rider(self.sim.now)
        done = self.dtu.send(
            self.peers[call.peer],
            (call.operation, call.args) if rider is None
            else (call.operation, call.args, rider),
            IK_MSG_BYTES,
            reply_ep=self.reply_ep,
            reply_label=call.negotiation,
        )
        call.attempts += 1
        if call.attempts > 1:
            # After the send: the DTU has closed the telemetry epochs
            # that ended, so the sampled total lands in the right one.
            self.retries += 1
            self.retry_log.append(
                (self.sim.now, call.negotiation, call.attempts)
            )
            if self.sim.obs is not None:
                self.sim.obs.instant(
                    "ik_retry", "ik", self.pe.node, peer=call.peer,
                    operation=call.operation, attempt=call.attempts,
                )
        if not self.dtu.reliable:
            return
        # Capped exponential backoff in pure integer arithmetic, so the
        # schedule is exact and bit-identical across runs.
        call.timer = self.sim.schedule(
            min(call.base * params.IK_RPC_BACKOFF ** (call.attempts - 1),
                params.IK_RPC_TIMEOUT_CAP_CYCLES),
            lambda _: self._timer_fired(call),
        )
        # The DTU giving up on a copy (the peer's hardware never acked
        # — dead node or partitioned NoC) moves the RPC forward
        # immediately instead of waiting out its timer.
        done.add_callback(
            lambda event: event.ok or self._timer_fired(call)
        )

    def _timer_fired(self, call: _Call) -> None:
        """``call`` went unanswered for its backoff interval (or the DTU
        gave up on a copy): retransmit it under the same negotiation id
        (the peer's dedup absorbs duplicates), or complete it with a
        timeout verdict."""
        if self._calls.get(call.negotiation) is not call:
            return  # answered in the meantime
        if call in self._backlog[call.peer]:
            return  # its next copy is already waiting for a credit
        if call.timer is not None:
            self.sim.cancel(call.timer)
            call.timer = None
        if self.pe.failed:
            # This kernel's own PE was killed: its RPCs die with it
            # (peers detect the death via their heartbeats).
            del self._calls[call.negotiation]
            return
        peer = call.peer
        if peer in self.dead_peers:
            return  # fail_peer errs the continuation; nothing to retry to
        if call.no_timeout or call.attempts < call.max_attempts:
            self._transmit(call)
            return
        del self._calls[call.negotiation]
        self.timeouts += 1
        if self.sim.obs is not None:
            self.sim.obs.count(f"kernel{self.kernel_id}.ik_timeouts")
        # No reply will ever refund these credits.
        self._refund(peer, call.attempts)
        self._drain(peer)
        call.continuation((
            "timeout",
            f"inter-kernel {call.operation} to kernel {peer} "
            f"got no reply after {call.attempts} attempts",
        ))

    def _refund(self, peer: int, count: int) -> None:
        """Reconcile peer-endpoint credits for copies whose replies
        will never arrive (clamped at the endpoint's maximum, so an
        over-refund from a late duplicate reply is harmless)."""
        ep_index = self.peers[peer]
        for _ in range(count):
            self.dtu.refund_credit(ep_index)

    # -- server side ------------------------------------------------------

    def admit(self, slot: int, message):
        """Take one request off the inter-kernel ring.  Returns
        ``(operation, args)`` for the kernel to execute and
        :meth:`reply` to, or ``None`` for a retransmitted copy, which
        is dealt with here.

        The (sender kernel id, negotiation id) pair identifies an RPC
        across copies.  A copy of an RPC already answered is
        re-answered from the reply cache; a copy of one still being
        served (or parked) is acked and dropped — the original slot
        will produce the one reply.  The depth rider is absorbed before
        the dedup check: gossip must not depend on execution.
        """
        if len(message.payload) == 3:
            operation, args, rider = message.payload
            self.router.absorb(rider)
        else:
            operation, args = message.payload
        key = (message.label, message.header.reply_label)
        cached = key in self._replied
        if cached or key in self._inflight:
            self.duplicates += 1
            if self.sim.obs is not None:
                self.sim.obs.count(f"kernel{self.kernel_id}.ik_duplicates")
            if cached:
                self.reply(slot, self._replied[key])
            else:
                self.dtu.ack_message(KERNEL_IK_EP, slot)
            return None
        self._inflight[key] = slot
        self.requests_served += 1
        if self.sim.obs is not None:
            self.sim.obs.count(f"kernel{self.kernel_id}.ik_served")
        return operation, args

    def reply(self, slot: int, payload) -> None:
        """Reply to (and thereby acknowledge) a peer kernel's request."""
        # Record the reply before sending it, keyed by the RPC identity
        # recovered from the still-unacked slot, so a retransmitted copy
        # of the same RPC gets the identical answer instead of being
        # re-executed (``create_vpe`` et al. are not naturally
        # idempotent).  The cache is bounded; the window only needs to
        # outlive the client's maximum backoff.
        try:
            message = self.dtu.ringbuffer(KERNEL_IK_EP).peek(slot)
        except (KeyError, ValueError):
            message = None
        if message is not None:
            key = (message.label, message.header.reply_label)
            if self._inflight.get(key) == slot:
                del self._inflight[key]
            self._replied[key] = payload
            while len(self._replied) > params.IK_RPC_REPLY_CACHE:
                self._replied.popitem(last=False)
        self.sim.ledger.charge(Tag.OS, params.M3_KERNEL_REPLY_CYCLES)
        self.dtu.reply(KERNEL_IK_EP, slot, payload, IK_MSG_BYTES)
