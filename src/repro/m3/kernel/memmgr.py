"""DRAM region management.

"The kernel is responsible for managing the memories in the system.
That is, it decides which application can use which parts of which
memories" (Section 4.5.4).  A first-fit free list is plenty for the
prototype's single DRAM module.
"""

from __future__ import annotations


#: every region starts on this boundary.
ALIGN = 64


class OutOfMemory(Exception):
    """No free region large enough."""


class MemoryManager:
    """First-fit allocator over one linear memory."""

    def __init__(self, base: int, size: int):
        if size <= 0 or base < 0:
            raise ValueError("invalid managed region")
        self.base = base
        self.size = size
        #: sorted list of free (start, length) holes.
        self._free: list[tuple[int, int]] = [(base, size)]

    def allocate(self, size: int) -> int:
        """Reserve ``size`` bytes; returns the ``ALIGN``-aligned start."""
        if size <= 0:
            raise ValueError(f"invalid allocation size: {size}")
        for index, (start, length) in enumerate(self._free):
            aligned = -(-start // ALIGN) * ALIGN
            waste = aligned - start
            if length >= waste + size:
                remainder_start = aligned + size
                remainder_len = (start + length) - remainder_start
                holes = []
                if waste:
                    holes.append((start, waste))
                if remainder_len:
                    holes.append((remainder_start, remainder_len))
                self._free[index : index + 1] = holes
                return aligned
        raise OutOfMemory(f"no free region of {size}B available")

    def free(self, address: int, size: int) -> None:
        """Return a region to the free list, coalescing neighbours."""
        if size <= 0:
            raise ValueError("invalid free size")
        if address < self.base or address + size > self.base + self.size:
            raise ValueError("freeing outside the managed region")
        self._free.append((address, size))
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for start, length in self._free:
            if merged and merged[-1][0] + merged[-1][1] >= start:
                last_start, last_len = merged[-1]
                if last_start + last_len > start:
                    raise ValueError("double free or overlapping free")
                merged[-1] = (last_start, last_len + length)
            else:
                merged.append((start, length))
        self._free = merged
