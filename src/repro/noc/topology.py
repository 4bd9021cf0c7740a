"""2D mesh topology: nodes, coordinates, and directed links."""

from __future__ import annotations


class MeshTopology:
    """A ``width`` x ``height`` mesh of nodes numbered row-major.

    Node ``n`` sits at ``(x, y) = (n % width, n // width)``.  Each pair
    of adjacent nodes is connected by two directed links, one per
    direction, because NoC channels are unidirectional wires.
    """

    def __init__(self, width: int, height: int):
        if width < 1 or height < 1:
            raise ValueError(f"mesh dimensions must be positive: {width}x{height}")
        self.width = width
        self.height = height

    @property
    def node_count(self) -> int:
        return self.width * self.height

    def coordinates(self, node: int) -> tuple[int, int]:
        """The ``(x, y)`` position of ``node``."""
        self._check(node)
        return node % self.width, node // self.width

    def node_at(self, x: int, y: int) -> int:
        """The node id at position ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise ValueError(f"({x}, {y}) outside {self.width}x{self.height} mesh")
        return y * self.width + x

    def neighbors(self, node: int) -> list[int]:
        """Nodes adjacent to ``node`` (2 to 4 of them)."""
        x, y = self.coordinates(node)
        adjacent = []
        if x > 0:
            adjacent.append(self.node_at(x - 1, y))
        if x < self.width - 1:
            adjacent.append(self.node_at(x + 1, y))
        if y > 0:
            adjacent.append(self.node_at(x, y - 1))
        if y < self.height - 1:
            adjacent.append(self.node_at(x, y + 1))
        return adjacent

    def links(self) -> list[tuple[int, int]]:
        """All directed links as ``(from, to)`` pairs."""
        return [
            (node, neighbor)
            for node in range(self.node_count)
            for neighbor in self.neighbors(node)
        ]

    def _check(self, node: int) -> None:
        if not (0 <= node < self.node_count):
            raise ValueError(
                f"node {node} outside mesh of {self.node_count} nodes"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MeshTopology {self.width}x{self.height}>"
