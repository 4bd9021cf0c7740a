"""Byte-accurate memory: PE scratchpads, device buffers and DRAM.

The prototype platform's PEs have no caches and no MMU; each core sees
a 64 KiB instruction SPM and a 64 KiB data SPM addressed physically
(paper Sections 4.1-4.2), and the DTUs move bytes between those and
the one DRAM module.  The model is byte-accurate so that data flowing
through pipes and files round-trips exactly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right


class Scratchpad:
    """A byte-accurate physically addressed memory, stored sparsely.

    The memory is a sorted record of written extents; unwritten bytes
    read as zero, so a DRAM of hundreds of MiB costs nothing until
    written.  An immutable payload — ``bytes``, or a ``memoryview`` of
    ``bytes`` — is kept by reference; anything mutable is copied once
    at :meth:`write`.  An overwrite trims its neighbours into zero-copy
    views.  :meth:`read` returns a read-only bytes-like object: the
    stored object itself for an exact read of a whole ``bytes`` extent,
    a ``memoryview`` of the extent for any other range inside one
    extent, and one joined ``bytes`` copy for a range that spans
    extents or gaps.  Extents are never mutated, so a returned view is
    a snapshot; it keeps at most the one extent it came from alive.
    """

    def __init__(self, size: int, name: str = "spm"):
        if size < 1:
            raise ValueError(f"memory size must be positive: {size}")
        self.size = size
        self.name = name
        #: start address of each extent, ascending; extents never overlap
        self._extent_starts: list[int] = []
        #: the extents' contents, immutable, index-aligned with the starts
        self._extent_bytes: list[bytes | memoryview] = []

    def read(self, address: int, length: int) -> bytes | memoryview:
        """Read ``length`` bytes starting at ``address`` (read-only)."""
        end = address + length
        if length < 0 or address < 0 or end > self.size:
            raise ValueError(
                f"{self.name}: cannot read [{address}, {end}) of "
                f"[0, {self.size})"
            )
        starts = self._extent_starts
        extents = self._extent_bytes
        index = bisect_right(starts, address) - 1
        if index >= 0:
            start = starts[index]
            extent = extents[index]
            extent_end = start + len(extent)
            if extent_end >= end:
                # one extent holds it all: hand out the extent itself
                # when the read is exactly a whole bytes extent, a
                # read-only view of it otherwise — free, and a snapshot,
                # because an extent is never mutated, only replaced
                if (start == address and extent_end == end
                        and type(extent) is bytes):
                    return extent
                return memoryview(extent)[address - start : end - start]
            if extent_end <= address:
                index += 1
        else:
            index = 0
        parts = []
        position = address
        count = len(starts)
        while index < count and starts[index] < end:
            start = starts[index]
            extent = extents[index]
            if start > position:
                parts.append(bytes(start - position))
                position = start
            stop = min(start + len(extent), end)
            parts.append(memoryview(extent)[position - start : stop - start])
            position = stop
            index += 1
        if position < end:
            parts.append(bytes(end - position))
        return b"".join(parts)

    def write(self, address: int, data: bytes) -> None:
        """Write ``data`` starting at ``address``."""
        length = len(data)
        end = address + length
        if address < 0 or end > self.size:
            raise ValueError(
                f"{self.name}: cannot write [{address}, {end}) of "
                f"[0, {self.size})"
            )
        if not length:
            return
        if type(data) is not bytes and not (
                type(data) is memoryview and type(data.obj) is bytes):
            data = bytes(data)  # the one copy of a mutable payload
        starts = self._extent_starts
        extents = self._extent_bytes
        first = bisect_right(starts, address)
        if first and starts[first - 1] + len(extents[first - 1]) > address:
            first -= 1
        last = bisect_left(starts, end, first)
        # extents [first, last) overlap [address, end): keep what sticks
        # out on either side as views, drop the rest
        placed_starts = [address]
        placed = [data]
        if first < last:
            start = starts[first]
            if start < address:
                placed_starts = [start, address]
                placed = [memoryview(extents[first])[: address - start], data]
            start = starts[last - 1]
            extent = extents[last - 1]
            if start + len(extent) > end:
                placed_starts.append(end)
                placed.append(memoryview(extent)[end - start :])
        starts[first:last] = placed_starts
        extents[first:last] = placed

    def zero(self, address: int, length: int) -> None:
        """Clear a region to zero bytes (it becomes unwritten again)."""
        if length > 0:
            # bytes(n) is calloc'd: the placeholder touches no pages
            self.write(address, bytes(length))
            index = bisect_left(self._extent_starts, address)
            del self._extent_starts[index], self._extent_bytes[index]
        elif length < 0 or address < 0 or address > self.size:
            raise ValueError(
                f"{self.name}: cannot zero [{address}, {address + length}) "
                f"of [0, {self.size})"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Scratchpad {self.name!r} {self.size}B "
            f"({len(self._extent_starts)} extents)>"
        )
