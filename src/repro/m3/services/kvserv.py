"""kvserv: a replicated key-value/object service tier.

The paper's service model (Section 4.5.3) is name-based: a service
registers under a name, clients open sessions through the kernel.
m3fs demonstrates a filesystem behind that protocol; kvserv
demonstrates the *service tier* of a traffic-serving system — a small
object store whose instances are replicated across kernel domains and
load-balanced by the kernels' session router
(:meth:`repro.m3.system.M3System.register_service_route`):

- every replica is an ordinary service (``CREATE_SRV``) in its own
  kernel domain, holding an in-memory ``key -> bytes`` store,
- clients open sessions against the *logical* name (e.g. ``"kv"``);
  their kernel resolves it round-robin to a live replica — locally or
  over the inter-kernel ``srv_open`` path (docs/protocols.md),
- sessions are explicitly reclaimed: ``close`` drops the session
  state, mirroring netserv's close path.

Values travel inside request/reply messages (bounded by the message
slot), so kvserv models the small-object regime — the common case for
session stores, metadata caches, and serving-tier lookups.
"""

from __future__ import annotations

import typing

from repro import params
from repro.m3.kernel import syscalls
from repro.m3.lib.env import Env
from repro.m3.lib.gate import BoundRecvGate, RecvGate, SendGate
from repro.obs.causal import header_context

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.m3.system import M3System

#: largest value that fits a request message next to key + framing.
MAX_VALUE_BYTES = 384


class KvError(Exception):
    """A kv request the service refused (bad key/value, closed session)."""


class _KvSession:
    """Per-client state: request accounting (the store is shared)."""

    __slots__ = ("id", "requests")

    def __init__(self, session_id: int):
        self.id = session_id
        self.requests = 0


class KvServ:
    """One replica: the store plus the service message loop."""

    def __init__(self, service_name: str = "kv",
                 op_cycles: int | None = None):
        self.service_name = service_name
        #: per-operation service cycles.  The default is the plain
        #: store cost; compute-heavy tiers (scoring, rendering — the
        #: elastic-scaling eval) raise it to model real per-request
        #: work on the replica's PE.
        self.op_cycles = (
            params.KV_SERVER_CYCLES if op_cycles is None else op_cycles
        )
        self.ready = None  # an Event, attached before spawn
        self.env = None
        self.vpe = None
        #: warm-boot staging (the autoscaler's clone path): with
        #: ``staged`` set, :meth:`main` announces itself on it and then
        #: parks on ``hold`` *before* creating its receive gate — so
        #: the clone can be cross-domain-migrated first and register
        #: its service with the kernel it will actually live under.
        self.staged = None
        self.hold = None
        #: the object store.  A plain dict: iteration order is
        #: insertion order, so reports stay deterministic.
        self.store: dict[str, bytes] = {}
        self.sessions: dict[int, _KvSession] = {}
        self.requests_served = 0
        self.gets = 0
        self.puts = 0
        self.deletes = 0
        self.misses = 0
        self.bytes_stored = 0
        self.sessions_opened = 0
        self.sessions_closed = 0

    # -- service software ---------------------------------------------------

    def main(self, env):
        """Generator: runs as the kvserv VPE."""
        self.env = env
        if self.staged is not None:
            # Warm-boot staging: park before touching any kernel state
            # beyond the syscall channel.  The hold event survives a
            # live migration (env.pe/env.dtu are repointed under us).
            self.staged.succeed(self)
            yield self.hold
        rgate = yield from RecvGate.create(
            env, slot_size=params.KV_MSG_BYTES + 16,
            slot_count=params.KV_RING_SLOTS,
        )
        yield from env.syscall(
            syscalls.CREATE_SRV, self.service_name, rgate.selector
        )
        if self.ready is not None:
            self.ready.succeed(self)
        while True:
            slot, message = yield from rgate.receive()
            obs = env.sim.obs
            started = env.sim.now
            operation, args = message.payload
            # Adopt the request's trace context (like m3fs), so a
            # traced client request stays causally linked through the
            # replica's handling.
            span = -1
            if obs is not None:
                span = obs.begin(operation, "kv", env.pe.node,
                                 parent=header_context(message.header),
                                 service=self.service_name)
            yield env.os_work(self.op_cycles)
            self.requests_served += 1
            if message.label == 0:
                # kernel<->service channel: session management.
                if operation == "open_session":
                    session_id, _client_vpe = args
                    self.sessions[session_id] = _KvSession(session_id)
                    self.sessions_opened += 1
                    response = ("ok", ())
                else:
                    response = ("err", f"unknown kernel op {operation!r}")
            else:
                session = self.sessions.get(message.label)
                if session is None:
                    response = ("err", "no such session")
                else:
                    session.requests += 1
                    try:
                        handler = getattr(self, f"_op_{operation}")
                        result = yield from handler(session, *args)
                        response = ("ok", result)
                    except (KvError, AttributeError, TypeError) as exc:
                        response = ("err", str(exc))
            yield from rgate.reply(slot, response)
            if obs is not None:
                obs.count(f"kv.{self.service_name}.requests")
                obs.observe("kv.request_cycles", env.sim.now - started)
                obs.end(span, status=response[0])

    def _value_copy(self, nbytes: int):
        """Generator: the server-side copy of a value payload."""
        if nbytes:
            yield self.env.os_work(
                max(1, nbytes // params.KV_VALUE_BYTES_PER_CYCLE)
            )

    # -- session operations ---------------------------------------------------

    def _op_get(self, session: _KvSession, key: str):
        """The value bytes, or None when the key is absent."""
        self.gets += 1
        value = self.store.get(key)
        if value is None:
            self.misses += 1
            return None
        yield from self._value_copy(len(value))
        return value

    def _op_put(self, session: _KvSession, key: str, value: bytes):
        value = bytes(value)
        if not key:
            raise KvError("empty key")
        if len(value) > MAX_VALUE_BYTES:
            raise KvError(f"value of {len(value)}B too large")
        yield from self._value_copy(len(value))
        previous = self.store.get(key)
        if previous is not None:
            self.bytes_stored -= len(previous)
        self.store[key] = value
        self.bytes_stored += len(value)
        self.puts += 1
        return len(value)

    def _op_delete(self, session: _KvSession, key: str):
        self.deletes += 1
        previous = self.store.pop(key, None)
        if previous is None:
            self.misses += 1
            return False
        self.bytes_stored -= len(previous)
        return True
        yield  # pragma: no cover

    def _op_close(self, session: _KvSession):
        """Reclaim the session (same contract as netserv's close)."""
        self.sessions.pop(session.id, None)
        self.sessions_closed += 1
        return ()
        yield  # pragma: no cover


class KvClient:
    """One application's session with a kv replica (or logical tier)."""

    def __init__(self, env: Env, session_sel: int, sgate: SendGate):
        self.env = env
        self.session_sel = session_sel
        self.sgate = sgate
        self.reply_gate = BoundRecvGate(env, Env.EP_REPLY)

    @classmethod
    def connect(cls, env: Env, service: str = "kv"):
        """Generator: open a (possibly routed) session with the tier."""
        session_sel, sgate_sel = yield from env.syscall(
            syscalls.OPEN_SESSION, service
        )
        return cls(env, session_sel, SendGate(env, sgate_sel))

    def request(self, operation: str, *args):
        """Generator: one RPC to the replica; returns the result."""
        yield self.env.sim.delay(params.KV_CLIENT_RPC_CYCLES, tag="os")
        message = yield from self.sgate.call(
            (operation, args), self.reply_gate
        )
        status, result = message.payload
        if status != "ok":
            raise KvError(result)
        return result

    def get(self, key: str):
        return (yield from self.request("get", key))

    def put(self, key: str, value: bytes):
        return (yield from self.request("put", key, value))

    def delete(self, key: str):
        return (yield from self.request("delete", key))

    def close(self):
        return (yield from self.request("close"))


def start_kv_tier(system: "M3System", replicas: int | None = None,
                  name: str = "kv", domains: list | None = None,
                  policy: str = "rr", op_cycles: int | None = None):
    """Boot a replicated kv tier and install its session route.

    One replica per kernel domain by default (``replicas``/``domains``
    override the count and placement).  Replica ``i`` registers as
    ``{name}{i}`` in its domain; the logical ``name`` is then routed
    across the live replicas by every kernel — round-robin by default,
    least-loaded with ``policy="depth"``.  Returns the :class:`KvServ`
    instances in replica order.
    """
    if domains is None:
        count = replicas if replicas is not None else len(system.kernels)
        domains = [index % len(system.kernels) for index in range(count)]
    servers = []
    route = []
    for index, domain in enumerate(domains):
        server = KvServ(service_name=f"{name}{index}", op_cycles=op_cycles)
        server.ready = system.sim.event(f"{name}{index}.ready")
        vpe = system.spawn(server.main, name=f"{name}{index}", domain=domain)
        system.sim.run(until_event=server.ready)
        if not server.ready.triggered:
            raise RuntimeError(f"kv replica {name}{index} failed to start")
        server.vpe = vpe
        servers.append(server)
        route.append((server.service_name, domain))
        if system.sim.obs is not None:
            system.sim.obs.label_node(vpe.node, f"service:{name}{index}")
    system.register_service_route(name, route, policy=policy)
    obs = system.sim.obs
    if obs is not None and obs.telemetry is not None:
        # Per-replica queue depth as a telemetry series, sampled at
        # each epoch close from the owning kernel — the authoritative
        # copy of the signal the depth router and autoscaler act on.
        # Reading the live route each time keeps replicas the
        # autoscaler adds (or retires) in the series automatically.
        def depth_sampler():
            return tuple(
                (f"kv.{replica}.depth",
                 system.kernels[owner].local_depth(replica))
                for replica, owner in
                system.kernels[0].router.service_routes.get(name, ())
            )

        obs.telemetry.add_sampler(depth_sampler)
    return servers
