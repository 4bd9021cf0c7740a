"""Directed NoC links as serially-reserved resources."""

from __future__ import annotations

import bisect
from array import array


class Link:
    """One directed channel between adjacent routers.

    A packet occupies the link for its serialisation time, which the
    :class:`~repro.noc.network.Network` computes once for the whole
    path (its links share one bandwidth).  Reservations are granted in
    request order: a link keeps the cycle at which it next becomes free
    and pushes later packets behind it, which models FIFO queueing
    contention without simulating individual flits.

    Occupancy windows are granted in non-decreasing order and never
    overlap, so the link keeps a compact merged-interval record
    (contiguous windows collapse into one): each window's start, its
    end and the cumulative idle cycles before it.  From those three
    :meth:`busy_within` computes the exact occupancy inside any
    ``[0, t)`` prefix — including windows that straddle or lie beyond
    ``t``, which a bare busy-cycle counter would overcount — and
    ``busy_cycles`` is read off the newest window instead of being
    written on every reservation.

    The record holds only what is still in flight, not the link's whole
    history: the newest window lives in three slots, and when the next
    one opens :func:`reserve_path` keeps the one it succeeds only while
    it ends after that packet's own head cycle — a link forgets what
    ended before it was last reserved, since no reader asks about an
    earlier prefix again.  The idle counts are cumulative, so a
    forgotten window stays folded into every later answer, and a link's
    memory stays proportional to the traffic in flight instead of to
    the packets it ever carried.
    """

    __slots__ = ("source", "destination", "packets",
                 "_window_start", "_window_end", "_window_idle",
                 "_older_ends", "_older_starts", "_older_idles",
                 "_forgotten_to")

    def __init__(self, source: int, destination: int):
        self.source = source
        self.destination = destination
        self.packets = 0
        #: the newest window: where it starts and ends, and the idle
        #: cycles before it.  An empty window at cycle 0 opens the record.
        self._window_start = self._window_end = self._window_idle = 0
        #: older windows that still end after the last packet's head, oldest
        #: first: where each ends and starts, and the idle cycles before
        #: it (machine words, so a window held costs no int objects and
        #: no object the cycle collector tracks).
        self._older_ends = array("q")
        self._older_starts = array("q")
        self._older_idles = array("q")
        #: the end of the newest window forgotten (0 while none is).
        self._forgotten_to = 0

    @property
    def busy_cycles(self) -> int:
        """Cycles reserved so far, whenever they lie."""
        return self._window_end - self._window_idle

    def busy_within(self, elapsed: int) -> int:
        """Exact occupied cycles inside the window ``[0, elapsed)``.

        Raises :class:`ValueError` when ``elapsed`` lies before the end
        of a forgotten window.
        """
        if elapsed <= 0:
            return 0
        if elapsed < self._forgotten_to:
            raise ValueError(
                f"link {self.source}->{self.destination}: occupancy before "
                f"cycle {self._forgotten_to} was forgotten (asked for {elapsed})"
            )
        # The first window that ends after ``elapsed``: whatever of
        # ``elapsed`` was not idle before it was busy.
        if elapsed >= self._window_start:
            return min(elapsed, self._window_end) - self._window_idle
        ends = self._older_ends
        index = bisect.bisect_right(ends, elapsed)
        if index == len(ends):
            return self._window_start - self._window_idle
        return (max(elapsed, self._older_starts[index])
                - self._older_idles[index])

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
        return f"<Link {self.source}->{self.destination} free@{self._window_end}>"


def reserve_path(links, head: int, hop_cycles: int, duration: int) -> int:
    """Reserve ``links`` in order for one packet that occupies each for
    ``duration`` cycles and whose head flit is at ``head``; return the
    cycle its tail clears the last link.

    The head advances one router per ``hop_cycles`` and stalls behind
    whatever each link already carries; the body streams behind it.
    This is the NoC's hottest loop — every packet reserves every link
    on its path — and the only place window arithmetic lives: one
    comparison against the link's newest window end, then either that
    window grows (the packet queues back-to-back) or a new one opens
    after the idle gap.  A window a new one succeeds is kept only while
    it ends after the packet's own ``head``: every reader asks at or
    after the cycle of every reservation already made (reports about
    ``[0, now)``; an observer folds its ended epochs before a packet
    reserves), so what ended before it is read no more.
    """
    floor = head
    end = 0
    for link in links:
        earliest = head + hop_cycles
        head = link._window_end
        if earliest > head:
            ends = link._older_ends
            if ends and ends[0] <= floor:
                forgotten = bisect.bisect_right(ends, floor)
                link._forgotten_to = ends[forgotten - 1]
                del ends[:forgotten]
                del link._older_starts[:forgotten]
                del link._older_idles[:forgotten]
            if head > floor:
                ends.append(head)
                link._older_starts.append(link._window_start)
                link._older_idles.append(link._window_idle)
            else:
                link._forgotten_to = head
            link._window_idle += earliest - head
            link._window_start = head = earliest
        link._window_end = end = head + duration
        link.packets += 1
    return end
