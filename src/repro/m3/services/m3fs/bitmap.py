"""Allocation bitmaps (for inodes and blocks)."""

from __future__ import annotations


class Bitmap:
    """A bitmap of ``count`` allocatable units with contiguous-run support."""

    def __init__(self, count: int):
        if count < 1:
            raise ValueError("bitmap needs at least one bit")
        self.count = count
        self._bits = bytearray(count)  # one byte per bit: simple and fast enough
        self.used = 0

    def alloc(self) -> int:
        """Allocate one unit; returns its index."""
        start, _ = self.alloc_run(1, 1)
        return start

    def alloc_run(self, want: int, minimum: int = 1) -> tuple[int, int]:
        """First-fit a free run of up to ``want`` units.

        Returns ``(start, got)`` where ``minimum <= got <= want`` — m3fs
        appends in large chunks but accepts shorter runs when the free
        space is fragmented (which is what creates file fragmentation).
        Raises MemoryError when not even ``minimum`` is available.
        """
        if want < 1 or minimum < 1 or minimum > want:
            raise ValueError(f"bad run request want={want} minimum={minimum}")
        # First-fit via bytearray.find, which scans at memchr speed —
        # the byte-at-a-time Python loop dominated fs_preload on large
        # volumes.  Semantics are identical: runs are visited left to
        # right, the first run of >= want units wins outright, otherwise
        # the leftmost longest run of >= minimum units is taken.
        bits = self._bits
        count = self.count
        best: tuple[int, int] | None = None
        index = bits.find(0)
        while 0 <= index < count:
            run_end = bits.find(1, index)
            if run_end == -1:
                run_end = count
            run_length = run_end - index
            if run_length >= want:
                best = (index, want)
                break
            if run_length >= minimum and (best is None or run_length > best[1]):
                best = (index, run_length)
            index = bits.find(0, run_end)
        if best is None:
            raise MemoryError(f"no free run of at least {minimum} units")
        start, got = best
        bits[start : start + got] = b"\x01" * got
        self.used += got
        return start, got

    def free_run(self, start: int, count: int) -> None:
        """Release ``count`` units starting at ``start``."""
        self._check(start)
        if count < 1 or start + count > self.count:
            raise ValueError(f"bad free range [{start}, {start + count})")
        hole = self._bits.find(0, start, start + count)
        if hole != -1:
            raise ValueError(f"double free of unit {hole}")
        self._bits[start : start + count] = bytes(count)
        self.used -= count

    def _check(self, index: int) -> None:
        if not (0 <= index < self.count):
            raise ValueError(f"index {index} outside bitmap of {self.count}")
