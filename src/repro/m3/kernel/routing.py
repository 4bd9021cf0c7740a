"""The session router: load-balancing ``open_session`` over replicas.

A plain data structure, one per kernel: the routes, their cursors and
policies, the per-replica dispatch counts, and this kernel's view of
remote queue depths.  It never sends anything: the kernel asks it to
``resolve`` a name; the RPC transport piggybacks its ``rider`` on
outgoing requests and hands it the peers' riders to ``absorb``.
"""

from __future__ import annotations

import typing

from repro.m3.kernel.syscalls import SyscallError


class SessionRouter:
    """Routes, cursors, dispatch counts and gossiped replica depths."""

    def __init__(self, kernel_id: int, peers: typing.Mapping,
                 dead_peers: typing.Collection, services: typing.Container,
                 local_depth: typing.Callable[[str], int]):
        self.kernel_id = kernel_id
        #: shared, read-only views of the owning kernel's membership
        #: (peer ids, peers declared dead) and registered services.
        self.peers = peers
        self.dead_peers = dead_peers
        self.services = services
        #: queue depth of a locally-owned replica, measured directly.
        self.local_depth = local_depth
        #: logical service name -> ordered ``(concrete service name,
        #: owning kernel id)`` replicas.
        self.service_routes: dict[str, tuple] = {}
        #: route name -> index of the replica the next scan starts at.
        self.cursors: dict[str, int] = {}
        #: per-route balancing policy: ``"rr"`` or ``"depth"``.
        self._route_policy: dict[str, str] = {}
        #: sessions dispatched per replica by this router.
        self.route_counts: dict[str, int] = {}
        #: replica name -> ``(stamp cycle, depth)`` learned from riders
        #: (newest stamp wins).
        self.replica_depths: dict[str, tuple] = {}
        #: attach depth riders to outgoing inter-kernel requests.  Off
        #: until some route asks for ``policy="depth"``: with every
        #: route on round-robin the wire payloads stay byte-identical
        #: to the pre-elastic protocol.
        self._gossip_depths = False

    def register(self, name: str, replicas, policy: str = "rr") -> None:
        """Route ``open_session(name)`` across service replicas.

        ``replicas`` is an ordered sequence of ``(service_name,
        kernel_id)`` pairs; ``policy`` is ``"rr"`` (round-robin) or
        ``"depth"`` (least queue depth, round-robin tiebreak) — see
        :meth:`M3System.register_service_route`, which installs the
        same route on every kernel.  Re-registering an existing route
        (the autoscaler resizing the tier) keeps the cursor, so
        surviving replicas keep their rotation slot.
        """
        if policy not in ("rr", "depth"):
            raise ValueError(f"unknown route policy {policy!r}")
        replicas = tuple(replicas)
        if not replicas:
            raise ValueError(f"route {name!r} needs at least one replica")
        for replica, owner in replicas:
            if replica == name:
                raise ValueError(
                    f"route {name!r} cannot contain itself as a replica"
                )
            if owner != self.kernel_id and owner not in self.peers:
                raise ValueError(f"route {name!r}: unknown domain {owner}")
        self.service_routes[name] = replicas
        self.cursors.setdefault(name, 0)
        self._route_policy[name] = policy
        if policy == "depth":
            self._gossip_depths = True

    def resolve(self, name: str) -> str:
        """Logical name -> next live replica; a name with no route
        resolves to itself.

        One scan in cursor order over the live replicas picks the
        smallest depth, the first one winning ties: ``"depth"`` routes
        compare the best known queue depths, ``"rr"`` routes compare
        nothing, which is plain rotation.  When every replica's domain
        is dead the router fails fast — cursor and :attr:`route_counts`
        untouched, so accounting still matches the sessions actually
        dispatched, and no stale name reaches the remote-session probe.
        """
        replicas = self.service_routes.get(name)
        if not replicas:
            return name
        cursor = self.cursors[name]
        by_depth = self._route_policy[name] == "depth"
        best = None
        for offset in range(len(replicas)):
            replica, owner = replicas[(cursor + offset) % len(replicas)]
            if owner != self.kernel_id and owner in self.dead_peers:
                continue
            depth = self._routed_depth(replica, owner) if by_depth else 0
            if best is None or depth < best[0]:
                best = (depth, offset, replica)
        if best is None:
            raise SyscallError(f"no live replica for route {name!r}")
        _depth, offset, replica = best
        self.cursors[name] = (cursor + offset + 1) % len(replicas)
        self.route_counts[replica] = self.route_counts.get(replica, 0) + 1
        return replica

    def _routed_depth(self, replica: str, owner: int) -> int:
        """Best known queue depth of a routed replica: measured directly
        when this kernel owns it, else the freshest gossiped value (a
        replica never heard about counts as idle)."""
        if owner == self.kernel_id:
            return self.local_depth(replica)
        known = self.replica_depths.get(replica)
        return known[1] if known is not None else 0

    def rider(self, now: int):
        """The depth piggyback for an inter-kernel message leaving at
        cycle ``now``: fresh samples for locally-owned routed replicas
        merged over the newest relayed knowledge, as sorted ``(name,
        stamp, depth)`` rows.  ``None`` (the common case) keeps the
        wire payload byte-identical to the pre-elastic two-tuple."""
        if not self._gossip_depths:
            return None
        view = dict(self.replica_depths)
        for replicas in self.service_routes.values():
            for replica, owner in replicas:
                if owner == self.kernel_id and replica in self.services:
                    view[replica] = (now, self.local_depth(replica))
        if not view:
            return None
        return tuple(sorted(
            (name, stamp, depth) for name, (stamp, depth) in view.items()
        ))

    def absorb(self, rider) -> None:
        """Merge a peer's depth piggyback; newest stamp per replica
        wins, so relayed third-party knowledge cannot roll back a
        fresher direct sample."""
        self._gossip_depths = True
        for name, stamp, depth in rider:
            known = self.replica_depths.get(name)
            if known is None or stamp > known[0]:
                self.replica_depths[name] = (stamp, depth)
