"""Services and the sessions through which every one of them is
reached (Sections 4.5.3 and 4.5.4).

:class:`Sessions` owns the service registry — the services registered
with this kernel, each with the send endpoint the kernel talks to it
through, and the cache of which peer kernel owns a remote name — and
the ``open_session`` negotiations parked while a service makes up its
mind.  A service leaves the registry when its VPE does
(:meth:`Sessions.unregister`, called from the kernel's one exit
funnel).  Like the RPC transport it is built from what it uses, not
from a ``Kernel``, so it runs against a scripted service on bare DTUs.
"""

from __future__ import annotations

import dataclasses
import types
import typing

from repro.dtu.dtu import DtuError
from repro.dtu.registers import EndpointKind, EndpointRegisters
from repro.m3.kernel.capability import Capability, CapKind
from repro.m3.kernel.objects import (
    RemoteClientRef,
    RemoteGateStub,
    RemoteServiceRef,
    SendGateObject,
    ServiceObject,
    SessionObject,
)
from repro.m3.kernel.syscalls import NO_REPLY, SYSCALL_MSG_BYTES, SyscallError


@dataclasses.dataclass(slots=True, eq=False)
class _Negotiation:
    """One ``open_session`` its service has not answered yet, keyed by
    its negotiation id — the label the service's reply carries."""

    service: ServiceObject
    session_id: int
    #: who the session is for: a local VPE or a :class:`RemoteClientRef`.
    client: object
    #: ``(name, category)`` of the span the completion runs under.
    span: tuple
    #: answers the requester: ``done(session_id, None)`` once granted,
    #: ``done(session_id, text)`` when refused.
    done: typing.Callable

    def finish(self, payload) -> None:
        """The service answered ``payload``: record the session it
        accepted, and tell the requester either way."""
        if payload[0] == "ok":
            self.service.sessions[self.session_id] = self.client
            self.done(self.session_id, None)
        else:
            self.done(self.session_id,
                      f"service {self.service.name!r} denied the session")


def _client_of(client, peer: int) -> bool:
    return isinstance(client, RemoteClientRef) and client.kernel_id == peer


class Sessions:
    """The service registry and the parked session negotiations."""

    def __init__(self, sim, dtu, negotiation_ids: typing.Iterator[int],
                 reply):
        self.sim = sim
        #: the kernel's DTU: its free endpoints become service channels.
        self.dtu = dtu
        #: labels for the services' replies, which arrive on the RPC
        #: transport's reply endpoint — hence the shared id counter.
        self._negotiation_ids = negotiation_ids
        #: ``reply(vpe, slot, payload)``: the late answer to a syscall
        #: parked here.
        self.reply = reply
        #: the session router (resolves routed names), the RPC
        #: transport (who the peers are, and the way to their services)
        #: and the capability exchange (revokes sessions on a peer's
        #: dead service).  The first two are built over this registry
        #: and the third over the transport, so their builder sets them
        #: afterwards.
        self.router = None
        self.ik = None
        self.caps = None
        #: the tables, each with its read-only view (``services``,
        #: ``owners``, ``parked``): registered services by name;
        #: service name -> owning peer kernel id (remote-lookup cache);
        #: negotiation id -> the negotiation awaiting its service.
        self._services: dict[str, ServiceObject] = {}
        self._owners: dict[str, int] = {}
        self._parked: dict[int, _Negotiation] = {}
        self.services = types.MappingProxyType(self._services)
        self.owners = types.MappingProxyType(self._owners)
        self.parked = types.MappingProxyType(self._parked)

    # -- the registry -----------------------------------------------------

    def create_srv(self, vpe, slot, name, rgate_sel):
        if name in self.services:
            raise SyscallError(f"service {name!r} already registered")
        rgate_cap = vpe.captable.get(rgate_sel, CapKind.RECV)
        rgate = rgate_cap.obj
        if rgate.ep_index is None:
            raise SyscallError("service receive gate must be activated first")
        # The kernel<->service channel takes the lowest endpoint of the
        # kernel DTU nothing is configured on; unregistering frees it.
        for ep_index, ep in enumerate(self.dtu.eps):
            if ep.kind is EndpointKind.INVALID:
                break
        else:
            raise SyscallError("kernel is out of service endpoints")
        self.dtu.configure_local(
            "configure",
            ep_index,
            EndpointRegisters.send_config(
                target_node=rgate.node,
                target_ep=rgate.ep_index,
                label=0,  # label 0 marks the kernel to the service
                credits=rgate.slot_count,
                msg_size=rgate.slot_size,
            ),
        )
        service = ServiceObject(name, rgate, vpe, ep_index)
        service.cap = rgate_cap.derive(service, kind=CapKind.SERVICE)
        self._services[name] = service
        return vpe.captable.insert(service.cap)
        yield  # pragma: no cover

    def unregister(self, vpe) -> None:
        """``vpe`` is gone (exited, reset, recovered, scaled down):
        drop the sessions it held as a client and the services it
        registered — entry, kernel endpoint, sessions — answering the
        negotiations still parked on them.  A peer whose VPEs hold
        sessions on such a service roots their capabilities itself, so
        it is told once (``srv_gone``) to revoke them."""
        for service in list(self.services.values()):
            sessions = service.sessions
            if service.owner is not vpe:
                for session_id, client in list(sessions.items()):
                    if client is vpe:
                        del sessions[session_id]
                continue
            del self._services[service.name]
            self.dtu.configure_local("invalidate", service.kernel_ep)
            for peer in sorted({client.kernel_id for client in sessions.values()
                                if isinstance(client, RemoteClientRef)}):
                self.ik.request(peer, "srv_gone", (service.name,),
                                lambda _payload: None)
            sessions.clear()
            for negotiation, parked in list(self._parked.items()):
                if parked.service is service:
                    del self._parked[negotiation]
                    parked.done(parked.session_id,
                                f"service {service.name!r} is gone")

    def serve_srv_gone(self, slot, sender, name):
        """Peer ``sender``'s service ``name`` is gone: revoke the
        sessions this domain's VPEs hold on it — and the send gates
        obtained with them, whose endpoints are cut — and forget the
        peer as the name's owner."""
        gone = RemoteServiceRef(name=name, kernel_id=sender)
        yield from self.caps.revoke_where(
            lambda _holder, cap: cap.kind == CapKind.SESSION
            and cap.obj.service == gone
        )
        if self._owners.get(name) == sender:
            del self._owners[name]
        return ()

    def depth(self, replica: str) -> int:
        """Queue depth of a locally-owned replica: unserved messages in
        its service inbox (the receive ring the kernel configured for
        it) plus session negotiations still in flight toward it."""
        service = self.services.get(replica)
        if service is None:
            return 0
        rgate = service.rgate
        try:
            depth = rgate.owner.pe.dtu.ringbuffer(rgate.ep_index).occupied
        except DtuError:
            depth = 0  # not configured right now (e.g. switched out)
        for parked in self._parked.values():
            if parked.service is service:
                depth += 1
        return depth

    def seed_owner(self, name: str, peer: int) -> None:
        """Pre-seed the owner cache (a route names the replica's
        domain), so the first remote open skips the probe walk."""
        self._owners.setdefault(name, peer)

    def fail_peer(self, peer: int) -> None:
        """Kernel ``peer`` is dead: nobody waits any more for the
        sessions being negotiated for its clients, the sessions they
        held are stale, and the names it owned are re-probed."""
        for negotiation, parked in list(self._parked.items()):
            if _client_of(parked.client, peer):
                del self._parked[negotiation]
        for service in self.services.values():
            for session_id, client in list(service.sessions.items()):
                if _client_of(client, peer):
                    del service.sessions[session_id]
        for name, owner in list(self._owners.items()):
            if owner == peer:
                del self._owners[name]

    # -- opening a session ------------------------------------------------

    def open_session(self, vpe, slot, name):
        try:
            name = self.router.resolve(name)
        except SyscallError as exc:
            # Every replica's domain is dead: a failure verdict, so the
            # black box is frozen before the client sees the error.
            obs = self.sim.obs
            if obs is not None and obs.flight is not None:
                obs.flight.dump(f"kernel{self.ik.kernel_id}: {exc}",
                                domain=self.ik.kernel_id)
            raise
        service = self.services.get(name)
        if service is None:
            if not self.ik.peers:
                raise SyscallError(f"no service {name!r}")
            # The name may be registered with a peer kernel's domain.
            self._open_remote(vpe, slot, name)
            return NO_REPLY

        def done(session_id, error):
            if error is None:
                self.grant(vpe, slot, service, service.rgate, session_id,
                           service.cap)
            else:
                self.reply(vpe, slot, ("err", error))

        return (yield from self._negotiate(
            service, vpe, vpe.id, ("open_session.finish", "syscall"), done
        ))

    def serve_srv_open(self, slot, sender, name, client_vpe):
        """A peer kernel asks to open a session with a local service on
        behalf of one of its VPEs; the answer carries the service
        gate's location so the peer can build the send gate."""
        service = self.services.get(name)
        if service is None:
            raise SyscallError(f"no service {name!r}")

        def done(session_id, error):
            rgate = service.rgate
            self.ik.reply(slot, ("err", error) if error is not None else (
                "ok", (session_id, rgate.node, rgate.ep_index, rgate.slot_size)
            ))

        return (yield from self._negotiate(
            service, RemoteClientRef(sender, client_vpe), client_vpe,
            ("srv_open.finish", "ik"), done
        ))

    def _negotiate(self, service: ServiceObject, client, client_vpe: int,
                   span: tuple, done):
        """Generator: ask ``service`` to accept a session over the
        kernel<->service channel and park the negotiation; the reply
        (labelled with the negotiation id) completes it asynchronously
        — the kernel loop must stay responsive because the service may
        be blocked in a syscall of its own."""
        session_id = service.next_session_id()
        negotiation = next(self._negotiation_ids)
        self._parked[negotiation] = _Negotiation(
            service, session_id, client, span, done
        )
        try:
            yield self.dtu.send(
                service.kernel_ep,
                ("open_session", (session_id, client_vpe)),
                SYSCALL_MSG_BYTES,
                reply_ep=self.ik.reply_ep,
                reply_label=negotiation,
            )
        except DtuError as exc:
            # The service's inbox is full or its node unreachable.  An
            # error for the requester — unless :meth:`unregister` got
            # there first — never an exception in the kernel loop.
            if self._parked.pop(negotiation, None) is None:
                return NO_REPLY
            raise SyscallError(
                f"service {service.name!r} is unreachable: {exc}"
            ) from None
        return NO_REPLY

    def complete(self, negotiation: int):
        """A reply labelled ``negotiation`` arrived on the reply
        endpoint.  Returns ``(span name, span category, continuation)``
        — the continuation runs with the reply's payload — or ``None``
        when no negotiation is (any longer) parked under the label."""
        parked = self._parked.pop(negotiation, None)
        return parked and (*parked.span, parked.finish)

    def grant(self, vpe, slot, service, rgate, session_id,
              parent: Capability | None = None) -> None:
        """Answer an ``open_session``: the client gets a session
        capability and, obtained with it, a send gate to the service's
        receive gate.  For a service registered here the session is
        obtained from its capability (``parent``), so revoking that
        cuts the client off."""
        session = SessionObject(service=service, label=session_id, client=vpe)
        session_cap = (Capability(CapKind.SESSION, session) if parent is None
                       else parent.derive(session, CapKind.SESSION))
        sgate = SendGateObject(target=rgate, label=session_id, credits=2)
        sgate_cap = session_cap.derive(sgate, CapKind.SEND)
        self.reply(vpe, slot, ("ok", (vpe.captable.insert(session_cap),
                                      vpe.captable.insert(sgate_cap))))

    def _open_remote(self, vpe, slot, name: str) -> None:
        """Probe the live peer kernels for service ``name``, cached
        owner first, then in kernel-id order, until one accepts the
        session.  :meth:`fail_peer` purges a dead peer's cache entries,
        so a replica registered with a surviving domain takes over."""
        candidates = self.ik.live_peers()
        cached = self._owners.get(name)
        if cached in candidates:
            candidates.remove(cached)
            candidates.insert(0, cached)

        def opened(peer, detail):
            session_id, rgate_node, rgate_ep, slot_size = detail
            self._owners[name] = peer
            self.grant(
                vpe, slot, RemoteServiceRef(name=name, kernel_id=peer),
                RemoteGateStub(node=rgate_node, ep_index=rgate_ep,
                               slot_size=slot_size),
                session_id,
            )

        def nobody():
            self._owners.pop(name, None)
            self.reply(vpe, slot, ("err", f"no service {name!r}"))

        self.ik.request_first(candidates, "srv_open", (name, vpe.id),
                              opened, nobody)
