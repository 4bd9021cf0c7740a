"""Directed NoC links as serially-reserved resources."""

from __future__ import annotations

import bisect


class Link:
    """One directed channel between adjacent routers.

    A packet occupies the link for its serialisation time
    (``ceil(bytes / bytes_per_cycle)``).  Reservations are granted in
    request order: a link keeps the cycle at which it next becomes free
    and pushes later packets behind it, which models FIFO queueing
    contention without simulating individual flits.

    Occupancy windows are granted in non-decreasing order and never
    overlap, so the link keeps a compact merged-interval record
    (contiguous windows collapse into one): each window's end and the
    idle cycles that precede it.  From those two :meth:`busy_within`
    computes the exact occupancy inside any ``[0, t)`` prefix —
    including windows that straddle or lie beyond ``t``, which a bare
    busy-cycle counter would overcount — and ``next_free`` and
    ``busy_cycles`` are read off the last window instead of being
    written on every reservation.

    The record is the *live tail* of the link's history, not all of
    it: :meth:`forget_before` folds the windows nobody will ask about
    again into the first retained one (the idle counts are cumulative,
    so nothing is lost from any later answer), which keeps a link's
    memory proportional to what its readers still look at instead of
    to the packets it ever carried.
    """

    __slots__ = ("source", "destination", "bytes_per_cycle", "packets",
                 "_window_ends", "_window_gaps")

    def __init__(self, source: int, destination: int, bytes_per_cycle: int):
        if bytes_per_cycle < 1:
            raise ValueError("link bandwidth must be at least 1 byte/cycle")
        self.source = source
        self.destination = destination
        self.bytes_per_cycle = bytes_per_cycle
        self.packets = 0
        #: merged occupancy windows (sorted, disjoint): where each ends,
        #: and the cumulative idle cycles before it starts.  Both open
        #: with an empty window at cycle 0, so ``[-1]`` always exists;
        #: after :meth:`forget_before`, ``[0]`` stands for everything
        #: up to its end.
        self._window_ends: list[int] = [0]
        self._window_gaps: list[int] = [0]

    @property
    def next_free(self) -> int:
        """The cycle from which the link is unreserved."""
        return self._window_ends[-1]

    @property
    def busy_cycles(self) -> int:
        """Cycles reserved so far, whenever they lie."""
        return self._window_ends[-1] - self._window_gaps[-1]

    @property
    def windows_retained(self) -> int:
        """How many merged windows the record currently holds."""
        return len(self._window_ends)

    def forget_before(self, floor: int) -> None:
        """Fold every window that ended at or before ``floor`` into the
        last of them.

        That one stays as the sentinel later idle gaps are measured
        from, and both lists are cumulative, so :meth:`busy_within`
        and :meth:`utilization` stay exact for every ``t >= floor``
        (``busy_cycles`` and ``next_free`` always); only a query below
        the sentinel's end can no longer be answered, and raises.
        """
        ends = self._window_ends
        # The newest window may still grow (a packet queueing behind
        # it), so it never becomes the sentinel: the search stops
        # short of it and a folded record keeps at least two windows.
        folded = bisect.bisect_right(ends, floor, 0, len(ends) - 1) - 1
        if folded > 0:
            del ends[:folded]
            del self._window_gaps[:folded]

    def serialization_cycles(self, nbytes: int) -> int:
        """Cycles to push ``nbytes`` through this link."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        # Pure-integer ceiling division: float division plus math.ceil
        # would round differently for very large byte counts.
        return -(-nbytes // self.bytes_per_cycle) or 1

    def reserve(self, earliest: int, nbytes: int) -> tuple[int, int]:
        """Reserve the link for ``nbytes`` no earlier than ``earliest``.

        Returns ``(start, end)`` of the granted occupancy window: the
        one-link case of :func:`reserve_path`.
        """
        end = reserve_path((self,), earliest, 0, nbytes)
        return end - self.serialization_cycles(nbytes), end

    def busy_within(self, elapsed: int) -> int:
        """Exact occupied cycles inside the window ``[0, elapsed)``.

        Raises :class:`ValueError` when ``elapsed`` lies inside what
        :meth:`forget_before` folded away.
        """
        if elapsed <= 0:
            return 0
        ends, gaps = self._window_ends, self._window_gaps
        # Windows whose end is <= elapsed count fully...
        index = bisect.bisect_right(ends, elapsed)
        if not index and gaps[0]:
            # Only a folded record's first window has idle cycles
            # before it; where it began is no longer known.
            raise ValueError(
                f"link {self.source}->{self.destination}: occupancy before "
                f"cycle {ends[0]} was folded away (asked for {elapsed})"
            )
        busy = ends[index - 1] - gaps[index - 1] if index else 0
        # ...and inside (or before) the next one, whatever of
        # ``elapsed`` was not idle was busy.
        if index < len(ends):
            busy = max(busy, elapsed - gaps[index])
        return busy

    def utilization(self, elapsed: int) -> float:
        """Exact fraction of ``[0, elapsed)`` this link was occupied.

        Only occupancy inside the elapsed window counts; reservations
        extending past (or granted beyond) ``elapsed`` contribute only
        their in-window prefix, so the result is exact and never needs
        clamping.
        """
        if elapsed <= 0:
            return 0.0
        return self.busy_within(elapsed) / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.source}->{self.destination} free@{self.next_free}>"


def forget_before(links, floor: int) -> None:
    """:meth:`Link.forget_before` on each of ``links`` that has anything
    to fold: two windows are the least a folded record keeps, so most
    links of a mesh cost one ``len`` per sweep, not a call."""
    for link in links:
        if len(link._window_ends) > 2:
            link.forget_before(floor)


def reserve_path(links, head: int, hop_cycles: int, nbytes: int) -> int:
    """Reserve ``links`` in order for one ``nbytes`` packet whose head
    flit is at ``head``; return the cycle its tail clears the last link.

    The head advances one router per ``hop_cycles`` and stalls behind
    whatever each link already carries; the body streams behind it.
    This is the NoC's hottest loop — every packet reserves every link
    on its path — and the only place window arithmetic lives: one
    comparison against the link's last window end, then either that
    window grows (the packet queues back-to-back) or a new one opens
    after the idle gap.  The serialisation time is worked out once per
    link bandwidth, not once per hop.
    """
    if nbytes < 0:
        raise ValueError(f"negative transfer size: {nbytes}")
    bandwidth = end = 0
    for link in links:
        if link.bytes_per_cycle != bandwidth:
            bandwidth = link.bytes_per_cycle
            duration = -(-nbytes // bandwidth) or 1
        earliest = head + hop_cycles
        ends = link._window_ends
        head = ends[-1]
        if earliest > head:
            gaps = link._window_gaps
            gaps.append(gaps[-1] + earliest - head)
            head = earliest
            end = head + duration
            ends.append(end)
        else:
            ends[-1] = end = head + duration
        link.packets += 1
    return end
