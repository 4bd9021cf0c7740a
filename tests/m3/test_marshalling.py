"""Unit and property tests for message marshalling."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.m3.lib.marshalling import wire_size


def test_wire_sizes_are_8_byte_granular():
    assert wire_size(5) == 8
    assert wire_size(True) == 8
    assert wire_size(3.14) == 8
    assert wire_size(None) == 8
    assert wire_size("abc") == 16  # 8 length + 8 padded payload
    assert wire_size(b"123456789") == 24  # 8 + 16 padded


def test_container_sizes_nest():
    assert wire_size((1, 2)) == 8 + 16
    assert wire_size([1, "ab"]) == 8 + 8 + 16
    assert wire_size({"k": 1}) == 8 + 16 + 8


def test_callable_travels_as_address():
    assert wire_size(lambda env: None) == 8


def test_unmarshallable_rejected():
    with pytest.raises(TypeError):
        wire_size(object())


_values = st.recursive(
    st.one_of(
        st.integers(min_value=-(2**62), max_value=2**62),
        st.text(max_size=20),
        st.binary(max_size=30),
        st.booleans(),
        st.none(),
    ),
    lambda children: st.lists(children, max_size=4).map(tuple),
    max_leaves=12,
)


@given(_values)
def test_wire_size_positive_and_aligned(value):
    size = wire_size(value)
    assert size >= 8
    assert size % 8 == 0
