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
from repro.m3.lib.service import ClientSession, Server, start_service

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.m3.system import M3System

#: largest value that fits a request message next to key + framing.
MAX_VALUE_BYTES = 384


class KvError(Exception):
    """A kv request the service refused (bad key/value, closed session)."""


class KvServ(Server):
    """One replica: the store plus its operations."""

    slot_size = params.KV_MSG_BYTES + 16
    slot_count = params.KV_RING_SLOTS
    errors = (KvError, TypeError)
    category = "kv"

    def __init__(self, service_name: str = "kv",
                 op_cycles: int | None = None):
        super().__init__(service_name)
        #: per-operation service cycles.  The default is the plain
        #: store cost; compute-heavy tiers (scoring, rendering — the
        #: elastic-scaling eval) raise it to model real per-request
        #: work on the replica's PE.
        self.request_cycles = (
            params.KV_SERVER_CYCLES if op_cycles is None else op_cycles
        )
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
        self.gets = 0
        self.puts = 0
        self.deletes = 0
        self.misses = 0
        self.bytes_stored = 0
        self.sessions_opened = 0
        self.sessions_closed = 0

    def _setup(self, env):
        if self.staged is not None:
            # Warm-boot staging: park before touching any kernel state
            # beyond the syscall channel.  The hold event survives a
            # live migration (env.pe/env.dtu are repointed under us).
            self.staged.succeed(self)
            yield self.hold

    def _open_session(self, session_id: int) -> int:
        self.sessions_opened += 1
        return session_id

    def _value_copy(self, nbytes: int):
        """Generator: the server-side copy of a value payload."""
        if nbytes:
            yield self.env.os_work(
                max(1, nbytes // params.KV_VALUE_BYTES_PER_CYCLE)
            )

    # -- session operations ---------------------------------------------------

    def _op_get(self, session: int, key: str):
        """The value bytes, or None when the key is absent."""
        self.gets += 1
        value = self.store.get(key)
        if value is None:
            self.misses += 1
            return None
        yield from self._value_copy(len(value))
        return value

    def _op_put(self, session: int, key: str, value: bytes):
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

    def _op_delete(self, session: int, key: str):
        self.deletes += 1
        previous = self.store.pop(key, None)
        if previous is None:
            self.misses += 1
            return False
        self.bytes_stored -= len(previous)
        return True
        yield  # pragma: no cover

    def _op_close(self, session: int):
        """Reclaim the session (same contract as netserv's close)."""
        self.sessions.pop(session, None)
        self.sessions_closed += 1
        return ()
        yield  # pragma: no cover


class KvClient(ClientSession):
    """One application's session with a kv replica (or logical tier)."""

    service = "kv"
    error = KvError
    rpc_cycles = params.KV_CLIENT_RPC_CYCLES

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
        server = start_service(
            system, KvServ(service_name=f"{name}{index}", op_cycles=op_cycles),
            domain,
        )
        servers.append(server)
        route.append((server.service_name, domain))
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
                 system.kernels[owner].sessions.depth(replica))
                for replica, owner in
                system.kernels[0].router.service_routes.get(name, ())
            )

        obs.telemetry.add_sampler(depth_sampler)
    return servers
