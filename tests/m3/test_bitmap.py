"""Unit and property tests for the m3fs allocation bitmap."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.m3.services.m3fs.bitmap import Bitmap


def used(bitmap: Bitmap) -> int:
    """The units ``bitmap`` has allocated: its set bits."""
    return bitmap._bits.count(1)


def test_alloc_progresses():
    bitmap = Bitmap(8)
    assert bitmap.alloc() == 0
    assert bitmap.alloc() == 1
    assert used(bitmap) == 2
    assert bitmap.count - used(bitmap) == 6


def test_alloc_run_takes_first_fit():
    bitmap = Bitmap(16)
    bitmap.alloc_run(4)
    start, got = bitmap.alloc_run(4)
    assert (start, got) == (4, 4)


def test_alloc_run_accepts_shorter_run():
    bitmap = Bitmap(10)
    bitmap.alloc_run(4)  # [0,4)
    bitmap.alloc_run(2)  # [4,6)
    bitmap.free_run(0, 4)  # hole of 4 at 0; tail [6,10) also 4
    start, got = bitmap.alloc_run(8)
    # Wants 8; no run satisfies it, so the first longest run wins.
    assert (start, got) == (0, 4)


def test_alloc_run_prefers_full_fit_over_earlier_partial():
    bitmap = Bitmap(20)
    bitmap.alloc_run(2)  # [0,2)
    bitmap.alloc_run(2)  # [2,4)
    bitmap.free_run(0, 2)  # 2-hole at 0
    start, got = bitmap.alloc_run(5)
    assert (start, got) == (4, 5)  # full fit later wins


def test_minimum_respected():
    bitmap = Bitmap(4)
    bitmap.alloc_run(3)
    with pytest.raises(MemoryError):
        bitmap.alloc_run(4, minimum=2)


def test_free_and_double_free():
    bitmap = Bitmap(8)
    start, got = bitmap.alloc_run(4)
    bitmap.free_run(start, got)
    assert used(bitmap) == 0
    with pytest.raises(ValueError):
        bitmap.free_run(start, got)


def test_bad_arguments():
    with pytest.raises(ValueError):
        Bitmap(0)
    bitmap = Bitmap(8)
    with pytest.raises(ValueError):
        bitmap.alloc_run(0)
    with pytest.raises(ValueError):
        bitmap.alloc_run(2, minimum=3)
    with pytest.raises(ValueError):
        bitmap.free_run(6, 4)


@given(st.data())
def test_allocated_runs_are_disjoint(data):
    bitmap = Bitmap(128)
    live = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=30))):
        if live and data.draw(st.booleans()):
            start, got = live.pop()
            bitmap.free_run(start, got)
            continue
        want = data.draw(st.integers(min_value=1, max_value=40))
        try:
            start, got = bitmap.alloc_run(want)
        except MemoryError:
            continue
        assert 1 <= got <= want
        for other_start, other_got in live:
            assert start + got <= other_start or other_start + other_got <= start
        live.append((start, got))
    assert used(bitmap) == sum(got for _, got in live)
