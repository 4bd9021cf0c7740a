"""The session router as a plain data structure (no system booted)."""

import pytest
from hypothesis import given, strategies as st

from repro.m3.kernel.routing import SessionRouter
from repro.m3.kernel.syscalls import SyscallError

PEERS = {1: 3, 2: 4, 3: 5}  # peer kernel id -> send EP (unused here)


def _router(dead=(), depth=lambda replica: 0):
    return SessionRouter(0, PEERS, set(dead), {}, depth)


replica_sets = st.lists(
    st.integers(min_value=0, max_value=3), min_size=1, max_size=6
).map(lambda owners: tuple(
    (f"kv{index}", owner) for index, owner in enumerate(owners)
))


@given(replicas=replica_sets,
       dead=st.sets(st.sampled_from(sorted(PEERS))),
       resolves=st.integers(min_value=1, max_value=12),
       depth=st.integers(min_value=0, max_value=9))
def test_rr_is_depth_routing_with_every_depth_equal(replicas, dead,
                                                    resolves, depth):
    """Round-robin and least-depth pick identical replica sequences
    when every depth is equal, whatever subset of domains is dead —
    the reason one scan serves both policies."""
    rr = _router(dead)
    by_depth = _router(dead, depth=lambda replica: depth)
    by_depth.replica_depths = {name: (5, depth) for name, _ in replicas}
    rr.register("kv", replicas, policy="rr")
    by_depth.register("kv", replicas, policy="depth")
    if all(owner in dead for _name, owner in replicas):
        for router in (rr, by_depth):
            with pytest.raises(SyscallError, match="no live replica"):
                router.resolve("kv")
            assert router.cursors == {"kv": 0}
            assert router.route_counts == {}
        return
    picks = [rr.resolve("kv") for _ in range(resolves)]
    assert [by_depth.resolve("kv") for _ in range(resolves)] == picks
    assert by_depth.cursors == rr.cursors
    assert by_depth.route_counts == rr.route_counts
    assert sum(rr.route_counts.values()) == resolves
    owners = dict(replicas)
    assert all(owners[name] == 0 or owners[name] not in dead
               for name in picks)


def test_unrouted_names_resolve_to_themselves():
    router = _router()
    assert router.resolve("m3fs") == "m3fs"
    assert router.route_counts == {}


def test_reregistering_keeps_the_cursor():
    router = _router()
    router.register("kv", (("kv0", 0), ("kv1", 1)))
    assert router.resolve("kv") == "kv0"
    router.register("kv", (("kv0", 0), ("kv1", 1), ("kv2", 2)))
    assert router.resolve("kv") == "kv1"


def test_depth_policy_measures_local_replicas_directly():
    """A replica this kernel owns is sampled through ``local_depth``;
    gossip about it is ignored."""
    router = _router(depth={"kv0": 3}.get)
    router.register("kv", (("kv0", 0), ("kv1", 1)), policy="depth")
    router.replica_depths = {"kv0": (10, 0), "kv1": (10, 2)}
    assert router.resolve("kv") == "kv1"
