"""Discrete-event simulation kernel.

Everything in this reproduction — the NoC, the DTUs, the M3 OS, and the
Linux baseline — runs on this small cycle-based discrete-event engine.

The engine models *time in cycles* (integers).  Software running "on a
core" is written as a Python generator that yields simulation primitives:

- ``yield sim.delay(n)``          advance the process by ``n`` cycles
- ``yield event``                 block until the :class:`Event` triggers
- ``yield process``               join another :class:`Process`
- ``yield from subroutine(...)``  ordinary generator composition

A :class:`TimeLedger` attached to the simulator attributes delay cycles
to categories (``app`` / ``os`` / ``xfer``), which is how the evaluation
harness regenerates the stacked-bar breakdowns of the paper's figures.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, Interrupt
from repro.sim.process import Process
from repro.sim.ledger import TimeLedger, Tag
from repro.sim.resources import Mailbox, Signal

__all__ = [
    "Simulator",
    "Event",
    "Interrupt",
    "Process",
    "TimeLedger",
    "Tag",
    "Mailbox",
    "Signal",
]
