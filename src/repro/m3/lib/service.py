"""The service protocol, once: a server loop, a client session, a starter.

M3's services are "provided via protocols over the network-on-chip"
(Sections 1, 4.5.1) and every one of them speaks the same
kernel-mediated session protocol (docs/protocols.md, "Service
sessions"): register with ``create_srv``, accept sessions the kernel
negotiates on label 0, answer session-labelled ``(operation, args)``
requests with ``("ok", result)`` or ``("err", text)`` — the reply
refunds the client's credit (Section 4.4.4) — and take device
interrupts as ordinary labelled messages (Section 4.4.2).
:class:`Server` and :class:`ClientSession` own that protocol; m3fs,
kvserv and netserv supply their operations.
"""

from __future__ import annotations

from repro.m3.kernel import syscalls
from repro.m3.lib.env import Env
from repro.m3.lib.gate import BoundRecvGate, RecvGate, SendGate
from repro.obs.causal import header_context
from repro.sim.ledger import Tag


class Server:
    """A service: what a subclass supplies, and the loop that runs it.

    A subclass names its receive-gate geometry, its per-request cycles
    and the exceptions that are refusals rather than bugs, and writes
    one generator method ``_op_<name>(session, *args)`` per operation.
    """

    #: receive-gate geometry.
    slot_size = 256
    slot_count = 8
    #: server-side software cycles charged per message (an instance may
    #: set its own).
    request_cycles = 0
    #: exceptions answered ``("err", str(exc))``; anything else is a bug
    #: in the handler and crashes the service VPE.
    errors: tuple = (TypeError,)
    #: span category and metric prefix; None leaves the service
    #: un-instrumented.
    category: str | None = None
    #: label of device-interrupt messages (no session id gets that high).
    irq_label: int | None = None

    def __init__(self, service_name: str):
        self.service_name = service_name
        self.ready = None  # an Event, attached by start_service
        self.env = None
        self.vpe = None
        self.service_sel: int | None = None
        #: session id (the message label) -> the subclass's session state.
        self.sessions: dict = {}
        self.requests_served = 0
        self._ops = {
            name[4:]: getattr(self, name)
            for name in dir(self) if name.startswith("_op_")
        }

    # -- what a subclass may override -----------------------------------------

    def _setup(self, env):
        """Generator: runs before the receive gate exists."""
        return
        yield  # pragma: no cover

    def _started(self):
        """Generator: runs once registered, before the first receive."""
        return
        yield  # pragma: no cover

    def _open_session(self, session_id: int):
        """The state handed to every ``_op_*`` call of the session."""
        return session_id

    def _handle_irq(self, payload):
        """Generator: a message labelled :attr:`irq_label`."""
        return
        yield  # pragma: no cover

    def stats(self) -> dict:
        """This service's totals under their system-wide names."""
        return {f"{self.service_name}.requests": self.requests_served}

    def observed_totals(self) -> dict[str, str]:
        """Observer counter -> the total of this server's it samples
        (``Observer.monitor``), registered once it has started."""
        if self.category is None:
            return {}
        return {f"{self.category}.{self.service_name}.requests":
                "requests_served"}

    # -- service software -----------------------------------------------------

    def main(self, env):
        """Generator: runs as the service VPE."""
        self.env = env
        yield from self._setup(env)
        rgate = yield from RecvGate.create(
            env, slot_size=self.slot_size, slot_count=self.slot_count
        )
        self.service_sel = yield from env.syscall(
            syscalls.CREATE_SRV, self.service_name, rgate.selector
        )
        # Every server passes here, however it was started; it stays in
        # the table after it retires, since what it served still counts.
        env.system.servers[self.service_name] = self
        if self.ready is not None:
            self.ready.succeed(self)
        yield from self._started()
        sim = env.sim
        category = self.category
        while True:
            slot, message = yield from rgate.receive()
            obs = sim.obs if category is not None else None
            started = sim.now
            # The service span adopts the request's trace context from
            # the message header, so everything done here — including
            # delegation syscalls back to the kernel — stays causally
            # linked to the client's request.
            span = -1
            if obs is not None:
                span = obs.begin(message.payload[0], category, env.pe.node,
                                 parent=header_context(message.header),
                                 service=self.service_name)
            yield sim.delay(self.request_cycles, tag=Tag.OS)
            label = message.label
            if label == self.irq_label:
                # Interrupts are acked, never replied to or counted.
                rgate.ack(slot)
                yield from self._handle_irq(message.payload)
                if obs is not None:
                    obs.end(span, status="irq")
                continue
            operation, args = message.payload
            if label == 0:
                # The kernel<->service channel: session management.
                if operation == "open_session":
                    session_id, _client_vpe = args
                    self.sessions[session_id] = self._open_session(session_id)
                    response = ("ok", ())
                else:
                    response = ("err", f"unknown kernel op {operation!r}")
            elif label not in self.sessions:
                response = ("err", "no such session")
            elif operation not in self._ops:
                response = ("err", f"unknown operation {operation!r}")
            else:
                try:
                    result = yield from self._ops[operation](
                        self.sessions[label], *args
                    )
                    response = ("ok", result)
                except self.errors as exc:
                    response = ("err", str(exc))
            yield from rgate.reply(slot, response)
            if obs is not None:
                obs.observe(f"{category}.request_cycles", sim.now - started)
                obs.end(span, status=response[0])
            # Counted once answered, after ``observe`` has closed the
            # telemetry epochs that ended (a sampled total).
            self.requests_served += 1


class ClientSession:
    """One application's session with a service."""

    #: the service name :meth:`connect` opens by default.
    service = ""
    #: raised for an ``("err", reason)`` reply.
    error: type = RuntimeError
    #: client-side software cycles per request (marshalling,
    #: unmarshalling, descriptor bookkeeping).
    rpc_cycles = 0
    #: client span category; None leaves requests untraced.
    category: str | None = None

    def __init__(self, env: Env, sgate: SendGate):
        self.env = env
        self.sgate = sgate
        self.reply_gate = BoundRecvGate(env, Env.EP_REPLY)

    @classmethod
    def connect(cls, env: Env, service: str | None = None):
        """Generator: open a (possibly routed) session with ``service``."""
        _session_sel, sgate_sel = yield from env.syscall(
            syscalls.OPEN_SESSION, service or cls.service
        )
        return cls(env, SendGate(env, sgate_sel))

    def request(self, operation: str, *args):
        """Generator: one RPC to the service; returns the result."""
        env = self.env
        obs = env.sim.obs if self.category is not None else None
        # Root (or child, when called under a traced span) of the
        # request's causal trace: the send gate's DTU message carries
        # the context to the service.
        span = -1
        if obs is not None:
            span = obs.begin(operation, self.category, env.pe.node,
                             vpe=env.vpe_id)
        try:
            if self.rpc_cycles:
                yield env.sim.delay(self.rpc_cycles, tag=Tag.OS)
            message = yield from self.sgate.call(
                (operation, args), self.reply_gate
            )
        except BaseException:
            if obs is not None:
                obs.end(span, outcome="interrupted")
            raise
        if obs is not None:
            obs.end(span)
        status, result = message.payload
        if status != "ok":
            raise self.error(result)
        return result


def start_service(system, server: Server, domain: int | None = None):
    """Spawn ``server`` as a VPE and run until it has registered.

    Returns the server; raises if it died before ``create_srv``
    answered (a duplicate name, no free PE).
    """
    name = server.service_name
    server.ready = system.sim.event(f"{name}.ready")
    vpe = system.spawn(server.main, name=name, domain=domain)
    system.sim.run(until_event=server.ready)
    if not server.ready.triggered:
        raise RuntimeError(f"{name} failed to start")
    server.vpe = vpe
    obs = system.sim.obs
    if obs is not None:
        obs.label_node(vpe.node, f"service:{name}")
        obs.monitor(server.observed_totals(), server)
    return server
