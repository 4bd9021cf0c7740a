"""Caches in front of the DTU: the paper's Section 7 extension.

"We plan to add caches to the PEs or replace the SPM with caches.  The
cache will use the DTU to load/store cache lines from/into DRAM.  In
this way, the DTU remains the only component with access to PE-external
resources and it thus suffices to control the DTU."

:class:`Cache` is a set-associative, read-only cache whose misses fetch
32-byte lines through a backend (typically a memory endpoint's ``read``),
so software can load PE-external memory byte by byte.
"""

from __future__ import annotations

from repro import params

#: the geometry: 8 KiB in 4-way sets of 32-byte lines; a hit costs a cycle.
CACHE_BYTES = 8 * 1024
WAYS = 4
LINE_BYTES = params.CACHE_LINE_BYTES
SET_COUNT = CACHE_BYTES // (LINE_BYTES * WAYS)
HIT_CYCLES = 1


class CacheLine:
    __slots__ = ("tag", "data", "last_use")

    def __init__(self, tag: int, data: bytes):
        self.tag = tag
        self.data = data
        self.last_use = 0


class Cache:
    """Set-associative read-only cache over a line-granular backend.

    ``backend_read(offset, size)`` is a generator function (normally
    :meth:`~repro.m3.lib.gate.MemGate.read`), so every miss costs real
    simulated DTU/NoC time.
    """

    def __init__(self, sim, backend_read):
        self.sim = sim
        self.backend_read = backend_read
        self._sets: list[list[CacheLine]] = [[] for _ in range(SET_COUNT)]
        self._clock = 0

    def _locate(self, address: int) -> tuple[int, int, int]:
        line_number = address // LINE_BYTES
        return (
            line_number % SET_COUNT,  # set index
            line_number // SET_COUNT,  # tag
            line_number * LINE_BYTES,  # line base address
        )

    def _line(self, address: int):
        """Generator: the cache line containing ``address`` (fetching
        and possibly evicting)."""
        set_index, tag, base = self._locate(address)
        bucket = self._sets[set_index]
        self._clock += 1
        for line in bucket:
            if line.tag == tag:
                line.last_use = self._clock
                yield self.sim.delay(HIT_CYCLES)
                return line
        # miss: fetch through the DTU
        data = yield from self.backend_read(base, LINE_BYTES)
        line = CacheLine(tag, bytes(data))
        line.last_use = self._clock
        if len(bucket) >= WAYS:
            bucket.remove(min(bucket, key=lambda l: l.last_use))
        bucket.append(line)
        return line

    def read(self, address: int, size: int):
        """Generator: read ``size`` bytes (line by line)."""
        if size < 0 or address < 0:
            raise ValueError("bad access")
        out = bytearray()
        position = address
        while position < address + size:
            line = yield from self._line(position)
            offset = position % LINE_BYTES
            take = min(LINE_BYTES - offset, address + size - position)
            out.extend(line.data[offset : offset + take])
            position += take
        return bytes(out)
