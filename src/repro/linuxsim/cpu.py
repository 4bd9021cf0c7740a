"""A single time-shared CPU with explicit context-switch costs.

Linux in the paper's evaluation runs everything on one core ("Linux
does not provide support for multiple PEs in the simulator",
Section 5.1), so pipe partners and fork children interleave, paying
"both the direct and the indirect costs of context switches"
(Section 1.3).  The direct cost is charged here on every owner change;
the indirect cost (cold caches after a switch) is part of the cache
model's copy bandwidth.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.ledger import Tag

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim import Simulator


class Cpu:
    """Cooperative single-core scheduler: hold to run, release to block."""

    def __init__(self, sim: "Simulator", switch_cycles: int):
        self.sim = sim
        self.switch_cycles = switch_cycles
        self._owner: object = None
        self._last_owner: object = None
        self._waiters: collections.deque = collections.deque()

    def acquire(self, who: object):
        """Generator: take the CPU (queueing behind the current owner)."""
        if self._owner is who:
            return
        if self._owner is not None:
            ticket = self.sim.event(f"cpu.wait.{who}")
            self._waiters.append((who, ticket))
            yield ticket
            # ownership transferred by release()
            return
        yield from self._switch_to(who)

    def _switch_to(self, who: object):
        if self._last_owner is not None and self._last_owner is not who:
            yield self.sim.delay(self.switch_cycles, tag=Tag.OS)
        self._owner = who
        self._last_owner = who

    def release(self, who: object) -> None:
        """Give up the CPU (when blocking or exiting)."""
        if self._owner is not who:
            raise RuntimeError(f"{who!r} released a CPU it does not own")
        self._owner = None
        if self._waiters:
            next_who, ticket = self._waiters.popleft()

            def handoff(next_who=next_who, ticket=ticket):
                yield from self._switch_to(next_who)
                ticket.succeed()

            self.sim.process(handoff(), "cpu.handoff")
