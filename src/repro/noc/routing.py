"""Dimension-ordered (XY) routing.

XY routing first corrects the horizontal coordinate, then the vertical
one.  It is minimal and — because the turn from Y back to X never
happens — provably deadlock-free on a mesh, which is why real NoCs
(including Tomahawk's) use it as the default.
"""

from __future__ import annotations

from repro.noc.topology import MeshTopology


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

    def hops(self, source: int, destination: int) -> int:
        """Number of links traversed (0 for self-sends)."""
        return self.topology.distance(source, destination)

    def links_on_path(self, source: int, destination: int) -> list[tuple[int, int]]:
        """The directed links a packet occupies, in order (none for a
        self-send).  A pure function of the immutable topology; the
        :class:`~repro.noc.network.Network` caches what it resolves
        them to."""
        path = self.route(source, destination)
        return list(zip(path, path[1:]))

