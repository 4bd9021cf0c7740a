"""The Section 7 cache extension: correctness and behaviour."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dtu.registers import MemoryPerm
from repro.hw.cache import CACHE_BYTES, LINE_BYTES, SET_COUNT, WAYS, Cache
from repro.m3.lib.gate import MemGate
from repro.m3.system import M3System
from repro.sim import Simulator


class _FakeBackend:
    """In-memory backend that records traffic (no DTU involved)."""

    def __init__(self, size=4 * CACHE_BYTES):
        self.memory = bytearray(size)
        self.reads = 0

    def read(self, offset, size):
        self.reads += 1
        return bytes(self.memory[offset : offset + size])
        yield  # pragma: no cover


#: bytes between two lines that map to the same set.
SET_STRIDE = SET_COUNT * LINE_BYTES


def _cache():
    sim = Simulator()
    backend = _FakeBackend()
    cache = Cache(sim, backend.read)
    return sim, backend, cache


def _run(sim, generator):
    return sim.run_process(generator)


def test_read_hits_after_first_miss():
    sim, backend, cache = _cache()
    backend.memory[0:4] = b"abcd"
    assert _run(sim, cache.read(0, 4)) == b"abcd"
    assert backend.reads == 1  # a miss
    assert _run(sim, cache.read(0, 4)) == b"abcd"
    assert backend.reads == 1  # a hit


def test_lru_within_a_set():
    # Lines SET_STRIDE apart share set 0: fill its ways, touch the
    # first line, and the next line evicts the second (LRU), not it.
    sim, backend, cache = _cache()
    for way in range(WAYS):
        _run(sim, cache.read(way * SET_STRIDE, 1))
    _run(sim, cache.read(0, 1))                   # touch the first
    _run(sim, cache.read(WAYS * SET_STRIDE, 1))   # evicts SET_STRIDE
    misses = backend.reads
    _run(sim, cache.read(0, 1))                   # still resident
    assert backend.reads == misses
    _run(sim, cache.read(SET_STRIDE, 1))          # evicted
    assert backend.reads == misses + 1


def test_misses_cost_more_than_hits():
    """Through a real MemGate, a miss pays the DTU round trip."""
    system = M3System(pe_count=2).boot(with_fs=False)

    def app(env):
        gate = yield from MemGate.create(env, 4096, MemoryPerm.RW.value)
        yield from gate.write(0, bytes(range(256)))
        cache = Cache(env.sim, gate.read)
        t0 = env.sim.now
        yield from cache.read(0, 16)  # miss
        miss_time = env.sim.now - t0
        t1 = env.sim.now
        yield from cache.read(0, 16)  # hit
        hit_time = env.sim.now - t1
        return miss_time, hit_time

    miss_time, hit_time = system.run_app(app)
    assert miss_time > 10 * hit_time


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    loads=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2 * WAYS),
            st.integers(min_value=0, max_value=100),
            st.integers(min_value=1, max_value=100),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_cached_memory_equals_reference(loads):
    """Any load sequence returns exactly the backend's bytes, also when
    it crowds twice as many lines into a few sets as they have ways (so
    lines are evicted and fetched again)."""
    sim = Simulator()
    region = (2 * WAYS + 1) * SET_STRIDE
    backend = _FakeBackend(size=region)
    backend.memory[:] = bytes(i * 7 % 256 for i in range(region))
    cache = Cache(sim, backend.read)
    for slot, offset, size in loads:
        address = slot * SET_STRIDE + offset
        got = _run(sim, cache.read(address, size))
        assert got == bytes(backend.memory[address : address + size])
