"""Blocking resources built on events: mailboxes and signals.

These are synchronisation objects for simulated processes.  They do
not model hardware state of their own: the DTU keeps one
:class:`Signal` per receive endpoint to wake the processes waiting
for a message there (its ringbuffer and credits are its own), and the
engine micro-benchmark (``benchmarks/perf/harness.engine_workload``)
passes tokens round rings of mailboxes.  No OS service and nothing in
the Linux baseline uses them.

Deadlock freedom: nothing here bounds a wait.  Mailbox waiters are
woken in FIFO order by ``put``.  In fault-prone setups the waits are
bounded where the loss happens: a reliable DTU fails a transfer nobody
acknowledges with ``TransferTimeout``, ik-RPC gives every call its own
timer, and the kernels' heartbeats declare a silent peer dead — so a
lost message never stalls a process forever.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


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


class Signal:
    """A re-armable condition: waiters block until the next :meth:`fire`.

    Unlike an :class:`Event`, a signal can fire many times; each fire
    wakes everyone currently waiting.  Used to model "poll the DTU until
    a message arrives" without busy-looping the simulator.

    A signal holds at most one armed event: every :meth:`wait` until the
    next fire returns it, so its waiters wake in the order they
    registered and a waiter that stops waiting (``first_of``'s losers)
    leaves nothing behind for the fire to clear.
    """

    __slots__ = ("sim", "_wait_name", "_armed")

    def __init__(self, sim: "Simulator", name: str = "signal"):
        self.sim = sim
        self._wait_name = f"{name}.wait"  # built once, not per wait
        self._armed: Event | None = None

    def wait(self) -> Event:
        """The event of the next firing."""
        armed = self._armed
        if armed is None:
            armed = self._armed = Event(self.sim, self._wait_name)
        return armed

    def fire(self) -> None:
        """Wake all current waiters."""
        armed = self._armed
        if armed is not None:
            self._armed = None
            armed.succeed()

    @property
    def waiting(self) -> int:
        """Registrations on the armed event (blocked processes, and
        ``first_of`` races it takes part in)."""
        return 0 if self._armed is None else len(self._armed._callbacks)
