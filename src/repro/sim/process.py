"""Processes: generator-driven activities on the simulator.

A process wraps a generator.  The generator yields:

- an :class:`~repro.sim.events.Event` — block until it triggers; the
  event's value is sent back into the generator (its exception is thrown
  for failed events),
- another :class:`Process` — join it (block until done, receive result),
- an ``int`` — shorthand for ``sim.delay(n)`` with no ledger tag.

When the generator returns, the process's :attr:`done` event succeeds
with the return value; an uncaught exception fails :attr:`done`.
"""

from __future__ import annotations

import typing

from repro.sim.events import SUCCEEDED, Event, Interrupt

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class Process:
    """A running activity driven by a generator."""

    __slots__ = ("sim", "name", "generator", "done", "_waiting_on")

    def __init__(self, sim: "Simulator", generator, name: str = "process"):
        if not hasattr(generator, "send"):
            raise TypeError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        self.sim = sim
        self.name = name
        self.generator = generator
        self.done = Event(sim, f"{name}.done")
        self._waiting_on: Event | None = None
        sim.call_soon(self._start)

    # -- driving the generator ----------------------------------------------

    def _start(self, _=None) -> None:
        self._advance(self.generator.send, None)

    def _wake(self, event: Event) -> None:
        self._waiting_on = None
        # Hottest wake-up path: read the event's slots, not its
        # ``ok``/``value`` properties (two calls per resumed process).
        if event._state == SUCCEEDED:
            self._advance(self.generator.send, event._value)
        else:
            self._advance(self.generator.throw, event._value)

    def _advance(self, resume, value) -> None:
        """Resume the generator (``resume`` is its ``send`` or ``throw``)
        with ``value`` and block on whatever it yields next."""
        try:
            target = resume(value)
        except StopIteration as stop:
            self.done.succeed(stop.value)
            return
        except BaseException as exc:
            self.done.fail(exc)
            return
        if type(target) is not Event:
            target = self._as_event(target)
            if target is None:
                return
        self._waiting_on = target
        target.add_callback(self._wake)

    def _as_event(self, target) -> Event | None:
        """The event a yielded :class:`Process` or ``int`` stands for;
        anything else fails the process (and yields ``None``)."""
        if isinstance(target, Process):
            return target.done
        if isinstance(target, int):
            return self.sim.delay(target)
        if isinstance(target, Event):
            return target
        self.done.fail(
            TypeError(
                f"process {self.name!r} yielded {target!r}; expected "
                "an Event, a Process, or an int delay"
            )
        )
        return None

    # -- external control -----------------------------------------------------

    @property
    def alive(self) -> bool:
        """Whether the process has not yet finished."""
        return not self.done.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current cycle.

        Only valid while the process is blocked; a process that is
        currently running cannot be interrupted (it is the caller).
        """
        if not self.alive:
            return
        waiting = self._waiting_on
        if waiting is None:
            raise RuntimeError(f"cannot interrupt running process {self.name!r}")
        waiting.discard_callback(self._wake)
        self._waiting_on = None
        self.sim.call_soon(
            lambda _: self._advance(self.generator.throw, Interrupt(cause))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"
