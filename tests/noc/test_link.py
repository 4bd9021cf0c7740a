"""Unit and property tests for link reservation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.noc import Link
from repro.noc.link import reserve_path


def _reserve(link, earliest, nbytes):
    """One packet's ``(start, end)`` on one link, reserved as
    ``Network.send`` reserves a path (the head is at ``earliest``)."""
    duration = link.serialization_cycles(nbytes)
    end = reserve_path((link,), earliest, 0, duration)
    return end - duration, end


def test_serialization_time():
    link = Link(0, 1, bytes_per_cycle=8)
    assert link.serialization_cycles(64) == 8
    assert link.serialization_cycles(65) == 9
    assert link.serialization_cycles(0) == 1  # even empty packets take a cycle


def test_reservations_queue_fifo():
    link = Link(0, 1, bytes_per_cycle=8)
    first = _reserve(link, 0, 80)  # 10 cycles
    second = _reserve(link, 0, 80)
    assert first == (0, 10)
    assert second == (10, 20)


def test_reservation_respects_earliest():
    link = Link(0, 1, bytes_per_cycle=8)
    start, end = _reserve(link, 100, 8)
    assert start == 100 and end == 101


def test_idle_gap_not_reclaimed():
    # FIFO model: a late request cannot be scheduled before next_free even
    # if the link was idle earlier.
    link = Link(0, 1, bytes_per_cycle=8)
    _reserve(link, 50, 8)
    start, _ = _reserve(link, 0, 8)
    assert start == 51


def test_utilization():
    link = Link(0, 1, bytes_per_cycle=8)
    _reserve(link, 0, 80)  # busy 10 cycles
    assert link.utilization(20) == pytest.approx(0.5)
    assert link.utilization(0) == 0.0


def test_invalid_bandwidth_and_size():
    with pytest.raises(ValueError):
        Link(0, 1, bytes_per_cycle=0)
    link = Link(0, 1, bytes_per_cycle=4)
    with pytest.raises(ValueError):
        link.serialization_cycles(-1)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=0, max_value=4096),
        ),
        min_size=1,
        max_size=50,
    )
)
def test_reservations_never_overlap(requests):
    link = Link(0, 1, bytes_per_cycle=8)
    windows = [_reserve(link, earliest, nbytes) for earliest, nbytes in requests]
    for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
        assert e1 <= s2, "link occupied by two packets at once"
        assert s1 < e1 and s2 < e2
    # Busy time equals the sum of window lengths.
    assert link.busy_cycles == sum(e - s for s, e in windows)


def test_utilization_is_exact_within_elapsed_window():
    link = Link(0, 1, bytes_per_cycle=8)
    _reserve(link, 100, 80)  # busy [100, 110)
    # The whole reservation lies in the future of cycle 50: no busy time
    # may be counted (the old implementation counted it all, then clamped).
    assert link.utilization(50) == 0.0
    assert link.busy_within(50) == 0
    # A straddling window counts only its overlap with [0, elapsed).
    assert link.busy_within(105) == 5
    assert link.utilization(105) == pytest.approx(5 / 105)
    # Past the window the full 10 cycles count.
    assert link.busy_within(200) == 10
    assert link.utilization(200) == pytest.approx(10 / 200)


def test_utilization_never_exceeds_one():
    link = Link(0, 1, bytes_per_cycle=8)
    for _ in range(10):
        _reserve(link, 0, 80)  # back-to-back [0, 100)
    for elapsed in (1, 5, 50, 99, 100, 1000):
        assert 0.0 < link.utilization(elapsed) <= 1.0
    assert link.utilization(50) == pytest.approx(1.0)


def test_busy_within_merges_contiguous_windows():
    link = Link(0, 1, bytes_per_cycle=8)
    _reserve(link, 0, 40)    # [0, 5)
    _reserve(link, 0, 40)    # [5, 10) - contiguous, merged internally
    _reserve(link, 20, 40)   # [20, 25) - a gap before it
    assert link.busy_within(10) == 10
    assert link.busy_within(15) == 10
    assert link.busy_within(22) == 12
    assert link.busy_within(30) == 15
    assert link.busy_cycles == 15
