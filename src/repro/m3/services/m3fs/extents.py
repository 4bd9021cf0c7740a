"""Extents: contiguous block runs, the unit of data-capability delegation.

"an extent is a pair of a starting block number and a number of
blocks. ... the applications get access to the data in form of memory
capabilities, representing contiguous pieces of memory" (Section 4.5.8).
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Extent:
    """A contiguous run of blocks."""

    start_block: int
    block_count: int

    def __post_init__(self):
        if self.start_block < 0 or self.block_count < 1:
            raise ValueError(
                f"invalid extent start={self.start_block} count={self.block_count}"
            )

    def size_bytes(self, block_size: int) -> int:
        return self.block_count * block_size

    def shrink_to(self, block_count: int) -> "Extent":
        """The leading portion of this extent (for truncation)."""
        if not (1 <= block_count <= self.block_count):
            raise ValueError(f"cannot shrink extent to {block_count} blocks")
        return Extent(self.start_block, block_count)


def total_bytes(extents: list[Extent], block_size: int) -> int:
    """Allocated capacity across all extents."""
    return sum(extent.size_bytes(block_size) for extent in extents)
