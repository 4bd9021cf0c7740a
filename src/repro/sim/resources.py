"""Blocking resources built on events: mailboxes and signals.

These are convenience synchronisation objects for simulated software.
They do not model hardware — the DTU has its own ringbuffer/credit
machinery — but OS services and the Linux baseline use them for
scheduler queues and producer/consumer hand-off.

Deadlock freedom: every blocking primitive here either offers a
``timeout`` (``Signal.wait``) or is only used in request/response pairs
where the waker is a simulator process that cannot be lost (Mailbox
waiters are woken in FIFO order by ``put``; the kernel and Linux
baselines never block on a mailbox whose producer is not itself
scheduled).  Fault-prone setups must use the timeout variants
— ``DTU.wait_message(timeout=...)``, ``Signal.wait(timeout=...)`` — so a
lost message can never stall a process forever.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


class WaitTimeout(Exception):
    """A bounded ``Signal.wait`` expired before the signal fired."""


class Mailbox:
    """Unbounded FIFO of items with blocking receive."""

    __slots__ = ("sim", "name", "_items", "_waiters")

    def __init__(self, sim: "Simulator", name: str = "mailbox"):
        self.sim = sim
        self.name = name
        self._items: collections.deque = collections.deque()
        self._waiters: collections.deque[Event] = collections.deque()

    def put(self, item: object) -> None:
        """Deposit an item, waking the oldest waiter if any.

        The wake-up is routed through ``sim.call_soon`` rather than
        triggering the waiter's event inside the producer's callback:
        the producer finishes its own callback before the consumer's
        event even becomes triggered, so a producer can never observe
        (or be re-entered through) half-woken consumer state.  FIFO
        hand-off order is preserved — ``call_soon`` is itself FIFO.
        """
        if self._waiters:
            self.sim.call_soon(self._waiters.popleft().succeed, item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event that yields the next item (immediately if available)."""
        event = Event(self.sim, f"{self.name}.get")
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._waiters.append(event)
        return event

    def __len__(self) -> int:
        return len(self._items)


class Signal:
    """A re-armable condition: waiters block until the next :meth:`fire`.

    Unlike an :class:`Event`, a signal can fire many times; each fire
    wakes everyone currently waiting.  Used to model "poll the DTU until
    a message arrives" without busy-looping the simulator.
    """

    __slots__ = ("sim", "name", "_wait_name", "_waiters")

    def __init__(self, sim: "Simulator", name: str = "signal"):
        self.sim = sim
        self.name = name
        self._wait_name = f"{name}.wait"  # built once, not per wait
        #: pending (event, timer-handle) pairs; the handle is None for
        #: unbounded waits.
        self._waiters: list[tuple[Event, list | None]] = []

    def wait(self, timeout: int | None = None) -> Event:
        """An event for the next firing.

        With ``timeout``, the event instead *fails* with
        :class:`WaitTimeout` after that many cycles if the signal has
        not fired — the waiter is deregistered, so abandoned waits do
        not accumulate.  When the signal fires first, the expiry timer
        is cancelled (:meth:`Simulator.cancel`), so satisfied waits
        leave no dead callbacks in the event queue.
        """
        event = Event(self.sim, self._wait_name)
        if timeout is None:
            self._waiters.append((event, None))
            return event
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")

        def expire(_):
            if not event.triggered:
                self._waiters.remove((event, timer))
                event.fail(WaitTimeout(
                    f"{self.name} did not fire within {timeout} cycles"
                ))

        timer = self.sim.schedule(timeout, expire)
        self._waiters.append((event, timer))
        return event

    def fire(self, value: object = None) -> None:
        """Wake all current waiters with ``value``."""
        waiters, self._waiters = self._waiters, []
        cancel = self.sim.cancel
        for event, timer in waiters:
            if timer is not None:
                cancel(timer)
            event.succeed(value)

    @property
    def waiting(self) -> int:
        return len(self._waiters)
