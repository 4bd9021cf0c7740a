"""Caches in front of the DTU: the paper's Section 7 extension.

"We plan to add caches to the PEs or replace the SPM with caches.  The
cache will use the DTU to load/store cache lines from/into DRAM.  In
this way, the DTU remains the only component with access to PE-external
resources and it thus suffices to control the DTU."

:class:`Cache` is a set-associative, write-back, write-allocate cache
whose misses fetch 32-byte lines through a backend (typically a memory
endpoint).  :class:`CachedMemory` wraps it into a byte-granular
load/store interface so software can treat PE-external memory as
directly addressable — the missing piece for POSIX-style applications.
"""

from __future__ import annotations

from repro import params


class CacheLine:
    __slots__ = ("tag", "data", "dirty", "last_use")

    def __init__(self, tag: int, data: bytearray):
        self.tag = tag
        self.data = data
        self.dirty = False
        self.last_use = 0


class Cache:
    """Set-associative write-back cache over a line-granular backend.

    ``backend_read(offset, size)`` and ``backend_write(offset, data)``
    are generator functions (normally a
    :class:`~repro.m3.lib.gate.MemGate`'s methods), so every miss and
    write-back costs real simulated DTU/NoC time.
    """

    def __init__(self, sim, backend_read, backend_write,
                 size_bytes: int = 8 * 1024,
                 line_bytes: int = params.CACHE_LINE_BYTES,
                 ways: int = 4, hit_cycles: int = 1):
        if line_bytes & (line_bytes - 1) or line_bytes < 8:
            raise ValueError("line size must be a power of two >= 8")
        if size_bytes % (line_bytes * ways):
            raise ValueError("cache size must divide into sets evenly")
        self.sim = sim
        self.backend_read = backend_read
        self.backend_write = backend_write
        self.line_bytes = line_bytes
        self.ways = ways
        self.set_count = size_bytes // (line_bytes * ways)
        self.hit_cycles = hit_cycles
        self._sets: list[list[CacheLine]] = [[] for _ in range(self.set_count)]
        self._clock = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def _locate(self, address: int) -> tuple[int, int, int]:
        line_number = address // self.line_bytes
        return (
            line_number % self.set_count,  # set index
            line_number // self.set_count,  # tag
            line_number * self.line_bytes,  # line base address
        )

    def _line(self, address: int):
        """Generator: the cache line containing ``address`` (fetching
        and possibly evicting)."""
        set_index, tag, base = self._locate(address)
        bucket = self._sets[set_index]
        self._clock += 1
        for line in bucket:
            if line.tag == tag:
                self.hits += 1
                line.last_use = self._clock
                yield self.sim.delay(self.hit_cycles)
                return line
        # miss: fetch through the DTU
        self.misses += 1
        data = yield from self.backend_read(base, self.line_bytes)
        line = CacheLine(tag, bytearray(data))
        line.last_use = self._clock
        if len(bucket) >= self.ways:
            victim = min(bucket, key=lambda l: l.last_use)
            bucket.remove(victim)
            if victim.dirty:
                yield from self._write_back(set_index, victim)
        bucket.append(line)
        return line

    def _write_back(self, set_index: int, line: CacheLine):
        self.writebacks += 1
        line_number = line.tag * self.set_count + set_index
        yield from self.backend_write(
            line_number * self.line_bytes, bytes(line.data)
        )

    # -- byte-granular access --------------------------------------------

    def read(self, address: int, size: int):
        """Generator: read ``size`` bytes (line by line)."""
        if size < 0 or address < 0:
            raise ValueError("bad access")
        out = bytearray()
        position = address
        while position < address + size:
            line = yield from self._line(position)
            offset = position % self.line_bytes
            take = min(self.line_bytes - offset, address + size - position)
            out.extend(line.data[offset : offset + take])
            position += take
        return bytes(out)

    def write(self, address: int, data: bytes):
        """Generator: write-allocate write of ``data``."""
        position = address
        index = 0
        while index < len(data):
            line = yield from self._line(position)
            offset = position % self.line_bytes
            take = min(self.line_bytes - offset, len(data) - index)
            line.data[offset : offset + take] = data[index : index + take]
            line.dirty = True
            position += take
            index += take
        return len(data)

    def flush(self):
        """Generator: write every dirty line back (for handoff points)."""
        for set_index, bucket in enumerate(self._sets):
            for line in bucket:
                if line.dirty:
                    yield from self._write_back(set_index, line)
                    line.dirty = False


class CachedMemory:
    """Byte-addressable view of a remote region through a cache.

    This is what "replace the SPM with caches" looks like to software:
    plain loads/stores whose misses transparently become DTU transfers.
    """

    def __init__(self, env, mem_gate, cache_bytes: int = 8 * 1024,
                 ways: int = 4):
        self.cache = Cache(
            env.sim,
            backend_read=mem_gate.read,
            backend_write=mem_gate.write,
            size_bytes=cache_bytes,
            ways=ways,
        )

    def load(self, address: int, size: int):
        """Generator: read bytes."""
        return (yield from self.cache.read(address, size))

    def store(self, address: int, data: bytes):
        """Generator: write bytes."""
        return (yield from self.cache.write(address, data))

    def flush(self):
        """Generator: push dirty state to the backing memory."""
        yield from self.cache.flush()
