"""Dimension-ordered (XY) routing.

XY routing first corrects the horizontal coordinate, then the vertical
one.  It is minimal and — because the turn from Y back to X never
happens — provably deadlock-free on a mesh, which is why real NoCs
(including Tomahawk's) use it as the default.
"""

from __future__ import annotations

from repro.noc.topology import MeshTopology

#: ``(width, height, source, destination) -> hops``: a route is a pure
#: function of the mesh shape, so every router of one shape shares it
#: and each pair is resolved once per process.
_HOPS: dict[tuple[int, int, int, int], tuple[tuple[int, int], ...]] = {}


class XYRouter:
    """Computes XY paths on a mesh."""

    def __init__(self, topology: MeshTopology):
        self.topology = topology

    def route(self, source: int, destination: int) -> list[int]:
        """The node sequence from ``source`` to ``destination`` inclusive."""
        topo = self.topology
        sx, sy = topo.coordinates(source)
        dx, dy = topo.coordinates(destination)
        path = [source]
        x, y = sx, sy
        while x != dx:
            x += 1 if dx > x else -1
            path.append(topo.node_at(x, y))
        while y != dy:
            y += 1 if dy > y else -1
            path.append(topo.node_at(x, y))
        return path

    def links_on_path(self, source: int, destination: int) -> list[tuple[int, int]]:
        """The directed links a packet occupies, in order (none for a
        self-send).  A pure function of the immutable topology; the
        :class:`~repro.noc.network.Network` caches what it resolves
        them to."""
        path = self.route(source, destination)
        return list(zip(path, path[1:]))

    def hops(self, source: int, destination: int) -> tuple[tuple[int, int], ...]:
        """:meth:`links_on_path` as a tuple, a same-node transfer
        crossing its node's loopback link, memoised for every router of
        this mesh shape."""
        topo = self.topology
        key = (topo.width, topo.height, source, destination)
        hops = _HOPS.get(key)
        if hops is None:
            hops = _HOPS[key] = (tuple(self.links_on_path(source, destination))
                                 or ((source, source),))
        return hops

