"""Unit and property tests for the mesh topology."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.noc import MeshTopology


def test_node_count():
    assert MeshTopology(4, 3).node_count == 12


def test_coordinates_roundtrip():
    topo = MeshTopology(5, 4)
    for node in range(topo.node_count):
        x, y = topo.coordinates(node)
        assert topo.node_at(x, y) == node


def test_corner_neighbors():
    topo = MeshTopology(3, 3)
    assert sorted(topo.neighbors(0)) == [1, 3]
    assert sorted(topo.neighbors(8)) == [5, 7]


def test_center_has_four_neighbors():
    topo = MeshTopology(3, 3)
    assert sorted(topo.neighbors(4)) == [1, 3, 5, 7]


def test_single_node_mesh_has_no_links():
    topo = MeshTopology(1, 1)
    assert topo.neighbors(0) == []
    assert topo.links() == []


def test_link_count_formula():
    # Directed links: 2 * (w-1)*h + 2 * w*(h-1)
    topo = MeshTopology(4, 3)
    expected = 2 * (4 - 1) * 3 + 2 * 4 * (3 - 1)
    assert len(topo.links()) == expected


def test_invalid_dimensions_rejected():
    with pytest.raises(ValueError):
        MeshTopology(0, 3)
    with pytest.raises(ValueError):
        MeshTopology(3, -1)


def test_out_of_range_node_rejected():
    topo = MeshTopology(2, 2)
    with pytest.raises(ValueError):
        topo.coordinates(4)
    with pytest.raises(ValueError):
        topo.node_at(2, 0)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8))
def test_neighbors_are_symmetric(width, height):
    topo = MeshTopology(width, height)
    for node in range(topo.node_count):
        for neighbor in topo.neighbors(node):
            assert node in topo.neighbors(neighbor)
