"""The simulator core: a cycle clock and a hybrid event queue.

The queue is split in two (the classic "calendar front bucket"
optimisation used by lightweight simulators):

- ``_bucket`` — a plain FIFO deque of callbacks due at the *current*
  cycle.  ``call_soon`` and zero-delay scheduling append here, so the
  long same-cycle chains produced by process wake-ups and event
  dispatch never touch the heap.
- ``_heap`` — a binary heap of ``[when, seq, callback, argument]``
  entries for *future* cycles.  When the clock advances to a cycle
  that several heap entries share, they are all drained into the bucket
  in sequence order, so FIFO ordering among same-cycle callbacks is
  exactly what a single heap would produce.  An entry that has its
  cycle to itself — the common case: a packet delivery, a retransmit
  timer — is run right where :meth:`Simulator.run` pops it; whatever it
  queues for the same cycle lands in the empty bucket behind it, so
  the order is the same and the entry skips a deque round trip.

Entries are mutable lists so they double as cancellation handles: see
:meth:`Simulator.cancel`.
"""

from __future__ import annotations

import itertools
import operator

from collections import deque
from heapq import heappop, heappush

from repro.sim.events import Event
from repro.sim.ledger import TimeLedger
from repro.sim.process import Process


def _as_cycles(value, what: str) -> int:
    """Coerce ``value`` to an integer cycle count.

    The clock is integral; silently accepting arbitrary floats would let
    platform-dependent rounding reorder events.  Integral floats (and
    anything supporting ``__index__``) are coerced, everything else is
    rejected.
    """
    if isinstance(value, float):
        if value.is_integer():
            return int(value)
        raise ValueError(
            f"{what} must be a whole number of cycles, got {value!r}"
        )
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(
            f"{what} must be an int cycle count, got {type(value).__name__}"
        ) from None


#: what :meth:`Simulator.run` watches when no ``until_event`` is given.
_NEVER = Event(None, "never")


class Simulator:
    """Cycle-based discrete-event simulator.

    Time is an integer cycle count starting at zero.  Callbacks scheduled
    for the same cycle run in FIFO order of scheduling, which makes runs
    fully deterministic.
    """

    __slots__ = ("now", "_bucket", "_heap", "_sequence", "_cancelled",
                 "ledger", "obs")

    def __init__(self):
        self.now: int = 0
        self._bucket: deque = deque()
        self._heap: list = []
        self._sequence = itertools.count()
        self._cancelled = 0
        self.ledger = TimeLedger()
        #: optional observability hub (see :mod:`repro.obs`); with None
        #: installed, instrumented components pay one branch per event.
        self.obs = None

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: int, callback, argument: object = None) -> list:
        """Run ``callback(argument)`` after ``delay`` cycles.

        Returns a handle accepted by :meth:`cancel`.
        """
        if type(delay) is not int:
            delay = _as_cycles(delay, "delay")
        if delay > 0:
            entry = [self.now + delay, next(self._sequence), callback, argument]
            heappush(self._heap, entry)
        elif delay == 0:
            entry = [callback, argument]
            self._bucket.append(entry)
        else:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return entry

    def call_soon(self, callback, argument: object = None) -> list:
        """Run ``callback(argument)`` at the current cycle, after the
        currently-running callbacks.  Returns a :meth:`cancel` handle."""
        entry = [callback, argument]
        self._bucket.append(entry)
        return entry

    def schedule_at(self, when: int, callback, argument: object = None) -> list:
        """Run ``callback(argument)`` at absolute cycle ``when`` (>= now).

        Same-cycle calls keep FIFO order behind the currently queued
        callbacks.  Returns a handle accepted by :meth:`cancel`.
        """
        if type(when) is not int:
            when = _as_cycles(when, "when")
        if when < self.now:
            raise ValueError(
                f"cannot schedule into the past (when={when}, now={self.now})"
            )
        if when == self.now:
            entry = [callback, argument]
            self._bucket.append(entry)
        else:
            entry = [when, next(self._sequence), callback, argument]
            heappush(self._heap, entry)
        return entry

    def cancel(self, handle: list) -> None:
        """Cancel a callback scheduled with :meth:`schedule`/:meth:`call_soon`.

        O(1): the queue entry is blanked in place and dropped when it
        reaches the front, so cancelled timers (``Signal.wait``
        timeouts and the like) leave no dead callbacks behind.
        Cancelling an already-executed or already-cancelled handle is a
        no-op: execution blanks the entry too, so a late cancel (a
        retry timer disarmed by the reply it retransmitted for, say)
        cannot disturb the ``pending_events`` accounting.
        """
        # Both entry shapes keep the callback in the second-to-last slot;
        # executed entries are blanked at pop time, so the branch below
        # is only taken for entries still waiting in a queue.
        if handle[-2] is not None:
            handle[-2] = None
            self._cancelled += 1

    # -- primitives for processes ------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name)

    def delay(self, cycles: int, tag: str | None = None) -> Event:
        """An event that triggers ``cycles`` from now.

        If ``tag`` is given the cycles are charged to the ledger, which is
        how the evaluation reconstructs App/OS/Xfer breakdowns.
        """
        if type(cycles) is not int:
            cycles = _as_cycles(cycles, "delay")
        if cycles < 0:
            raise ValueError(f"negative delay: {cycles}")
        if tag is not None:
            self.ledger.charge(tag, cycles)
        done = Event(self, "delay")
        if cycles == 0:
            self._bucket.append([done.succeed, None])
        else:
            heappush(
                self._heap,
                [self.now + cycles, next(self._sequence), done.succeed, None],
            )
        return done

    def process(self, generator, name: str = "process") -> Process:
        """Start ``generator`` as a new simulation process."""
        return Process(self, generator, name)

    # -- execution ----------------------------------------------------------

    def run(self, until: int | None = None, until_event: Event | None = None) -> None:
        """Run until the queue drains, ``until`` cycles pass, or an event fires.

        ``until`` is an absolute cycle count; events scheduled exactly at
        ``until`` still fire.  When ``until_event`` is given, execution
        stops right after the event triggers.
        """
        bucket, heap = self._bucket, self._heap
        # One loop serves all three modes: with no event to watch, the
        # stop test reads the state of one that never triggers.
        stop = until_event if until_event is not None else _NEVER
        if stop._state:
            return
        while True:
            while bucket:
                entry = bucket.popleft()
                callback = entry[-2]
                if callback is None:
                    self._cancelled -= 1
                    continue
                # Blank the entry before running it: the handle is
                # consumed, so a later cancel is the promised no-op.
                entry[-2] = None
                callback(entry[-1])
                if stop._state:
                    return
            while heap and heap[0][2] is None:
                heappop(heap)
                self._cancelled -= 1
            if not heap or (until is not None and heap[0][0] > until):
                break
            entry = heappop(heap)
            self.now = when = entry[0]
            if heap and heap[0][0] == when:
                # The cycle is shared: every entry due now moves to the
                # bucket in sequence order (as-is, so cancel handles
                # stay live) and runs FIFO from there.
                bucket.append(entry)
                while heap and heap[0][0] == when:
                    bucket.append(heappop(heap))
                continue
            # A lone entry is run where it was popped; what it queues at
            # this cycle lands in the (empty) bucket behind it.
            callback, entry[2] = entry[2], None
            callback(entry[3])
            if stop._state:
                return
        if until is not None and self.now < until:
            self.now = until

    def run_process(self, generator, name: str = "main", limit: int | None = None):
        """Start a process, run the simulation to its completion, and
        return its result (re-raising its failure, if any)."""
        proc = self.process(generator, name)
        self.run(until=limit, until_event=proc.done)
        if not proc.done.triggered:
            raise RuntimeError(
                f"process {name!r} did not finish "
                f"(t={self.now}, queue="
                f"{'empty' if not self.pending_events else 'pending'})"
            )
        if not proc.done.ok:
            raise proc.done.value
        return proc.done.value

    @property
    def pending_events(self) -> int:
        """Number of live queued callbacks (cancelled entries excluded)."""
        return len(self._bucket) + len(self._heap) - self._cancelled
