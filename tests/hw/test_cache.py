"""The Section 7 cache extension: correctness and behaviour."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dtu.registers import MemoryPerm
from repro.hw.cache import Cache
from repro.m3.lib.gate import MemGate
from repro.m3.system import M3System
from repro.sim import Simulator


class _FakeBackend:
    """In-memory backend that records traffic (no DTU involved)."""

    def __init__(self, size=4096):
        self.memory = bytearray(size)
        self.reads = 0

    def read(self, offset, size):
        self.reads += 1
        return bytes(self.memory[offset : offset + size])
        yield  # pragma: no cover


def _cache(**kwargs):
    sim = Simulator()
    backend = _FakeBackend()
    cache = Cache(sim, backend.read, **kwargs)
    return sim, backend, cache


def _run(sim, generator):
    return sim.run_process(generator)


def test_read_hits_after_first_miss():
    sim, backend, cache = _cache()
    backend.memory[0:4] = b"abcd"
    assert _run(sim, cache.read(0, 4)) == b"abcd"
    assert (cache.hits, cache.misses) == (0, 1)
    assert _run(sim, cache.read(0, 4)) == b"abcd"
    assert (cache.hits, cache.misses) == (1, 1)
    assert backend.reads == 1


def test_lru_within_a_set():
    # one set, two ways, 32B lines: 0, 64, 128 all map to set 0... with
    # set_count=1 every line shares the set.
    sim, backend, cache = _cache(size_bytes=64, ways=2)
    _run(sim, cache.read(0, 1))    # line A
    _run(sim, cache.read(32, 1))   # line B (set 1!) — use same set: 64
    _run(sim, cache.read(64, 1))   # maps with A
    _run(sim, cache.read(0, 1))    # touch A
    _run(sim, cache.read(128, 1))  # evicts 64 (LRU), not A
    misses = cache.misses
    _run(sim, cache.read(0, 1))    # still resident
    assert cache.misses == misses


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


def test_invalid_geometry():
    sim = Simulator()
    backend = _FakeBackend()
    with pytest.raises(ValueError):
        Cache(sim, backend.read, line_bytes=48)
    with pytest.raises(ValueError):
        Cache(sim, backend.read, size_bytes=100, ways=3)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    loads=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=1, max_value=100),
        ),
        min_size=1,
        max_size=40,
    ),
    ways=st.sampled_from([1, 2, 4]),
)
def test_cached_memory_equals_reference(loads, ways):
    """Any load sequence through a cache far smaller than the region
    (so lines are evicted and fetched again) returns exactly the
    backend's bytes."""
    sim = Simulator()
    backend = _FakeBackend(size=2048)
    backend.memory[:] = bytes(i * 7 % 256 for i in range(2048))
    cache = Cache(sim, backend.read, size_bytes=256, ways=ways)
    for address, size in loads:
        address = min(address, 2048 - size)
        got = _run(sim, cache.read(address, size))
        assert got == bytes(backend.memory[address : address + size])
    assert cache.misses == backend.reads
