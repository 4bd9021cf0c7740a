"""Events: the synchronisation primitive of the simulation kernel.

An :class:`Event` starts *pending* and is triggered exactly once, either
successfully (with an optional value) or with an exception.  Processes
block on events by yielding them; callbacks registered on an event run
through the simulator's queue at the trigger time, which preserves FIFO
ordering among same-cycle activations.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Interrupt(Exception):
    """Thrown into a process that is interrupted while blocked."""

    def __init__(self, cause: object = None):
        super().__init__(cause)
        self.cause = cause


#: Event states.  Pending is falsy, so the engine, ``Process._wake`` and
#: the DTU test ``event._state`` directly where a ``triggered``/``ok``
#: property call per executed callback would show in the profile.
PENDING, SUCCEEDED, FAILED = 0, 1, 2


class Event:
    """A one-shot occurrence at a point in simulated time."""

    __slots__ = ("sim", "name", "_state", "_value", "_callbacks")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._state = PENDING
        self._value: object = None
        self._callbacks: list = []

    # -- state inspection ------------------------------------------------

    @property
    def triggered(self) -> bool:
        """Whether the event has been succeeded or failed."""
        return self._state != PENDING

    @property
    def ok(self) -> bool:
        """Whether the event has succeeded."""
        return self._state == SUCCEEDED

    @property
    def value(self) -> object:
        """The value the event succeeded with (or its exception)."""
        return self._value

    # -- triggering ------------------------------------------------------

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully, waking all waiters."""
        if self._state:
            raise RuntimeError(f"event {self.name!r} triggered twice")
        self._state = SUCCEEDED
        self._value = value
        self._dispatch()
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, thrown into waiters."""
        if self._state:
            raise RuntimeError(f"event {self.name!r} triggered twice")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._state = FAILED
        self._value = exception
        self._dispatch()
        return self

    def _dispatch(self) -> None:
        callbacks, self._callbacks = self._callbacks, []
        # Inlined call_soon: waking waiters is the hottest dispatch path.
        bucket = self.sim._bucket
        for callback in callbacks:
            bucket.append([callback, self])

    # -- waiting ----------------------------------------------------------

    def add_callback(self, callback) -> None:
        """Register ``callback(event)``; runs via the queue if triggered."""
        if not self._state:
            self._callbacks.append(callback)
        else:
            self.sim._bucket.append([callback, self])

    def discard_callback(self, callback) -> None:
        """Remove a pending callback registration, if present."""
        try:
            self._callbacks.remove(callback)
        except ValueError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {0: "pending", 1: "ok", 2: "failed"}[self._state]
        return f"<Event {self.name!r} {state} at t={self.sim.now}>"


def first_of(sim: "Simulator", *events: Event) -> Event:
    """An event that succeeds when the first of ``events`` triggers.

    The combined event carries the winning event as its value.  Used by
    event-driven servers (the kernel) that wait on several message
    sources at once.
    """
    if not events:
        raise ValueError("first_of needs at least one event")
    combined = Event(sim, "first_of")

    def wake(event: Event) -> None:
        if not combined.triggered:
            combined.succeed(event)

    for event in events:
        event.add_callback(wake)
    return combined
