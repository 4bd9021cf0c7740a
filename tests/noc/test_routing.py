"""Unit and property tests for XY routing."""

from hypothesis import given
from hypothesis import strategies as st

from repro.noc import MeshTopology, XYRouter


def _router(width=4, height=4):
    return XYRouter(MeshTopology(width, height))


def test_route_to_self_is_single_node():
    router = _router()
    assert router.route(5, 5) == [5]
    assert router.hops(5, 5) == 0


def test_route_goes_x_first():
    router = _router(4, 4)
    # 0 is (0,0); 10 is (2,2): expect 0 -> 1 -> 2 -> 6 -> 10
    assert router.route(0, 10) == [0, 1, 2, 6, 10]


def test_route_westward_then_north():
    router = _router(4, 4)
    # 15 is (3,3); 4 is (0,1): expect x corrections then y.
    assert router.route(15, 4) == [15, 14, 13, 12, 8, 4]


def test_links_on_path_pairs():
    router = _router(3, 3)
    assert router.links_on_path(0, 2) == [(0, 1), (1, 2)]


@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=9),
    st.data(),
)
def test_routes_are_minimal_and_connected(width, height, data):
    topo = MeshTopology(width, height)
    router = XYRouter(topo)
    src = data.draw(st.integers(min_value=0, max_value=topo.node_count - 1))
    dst = data.draw(st.integers(min_value=0, max_value=topo.node_count - 1))
    path = router.route(src, dst)
    assert path[0] == src
    assert path[-1] == dst
    # Minimality: hop count equals Manhattan distance.
    assert len(path) - 1 == topo.distance(src, dst)
    # Connectivity: consecutive nodes are mesh neighbors.
    for a, b in zip(path, path[1:]):
        assert b in topo.neighbors(a)
    # No node revisited (paths are simple).
    assert len(set(path)) == len(path)


@given(
    st.integers(min_value=2, max_value=8),
    st.integers(min_value=2, max_value=8),
    st.data(),
)
def test_xy_routing_never_turns_from_y_to_x(width, height, data):
    """The deadlock-freedom argument: once a packet moves vertically it
    never moves horizontally again."""
    topo = MeshTopology(width, height)
    router = XYRouter(topo)
    src = data.draw(st.integers(min_value=0, max_value=topo.node_count - 1))
    dst = data.draw(st.integers(min_value=0, max_value=topo.node_count - 1))
    path = router.route(src, dst)
    moved_vertically = False
    for a, b in zip(path, path[1:]):
        ax, ay = topo.coordinates(a)
        bx, by = topo.coordinates(b)
        if ay != by:
            moved_vertically = True
        elif moved_vertically:
            raise AssertionError(f"path {path} turned from Y back to X")

