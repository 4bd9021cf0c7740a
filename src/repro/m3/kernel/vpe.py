"""Kernel-side VPE objects.

"Applications consist of at least one VPE, whereas each VPE is assigned
to exactly one PE at any point in time" (Section 4.3); the kernel
tracks each VPE's PE binding, capability table, and exit state.
"""

from __future__ import annotations

import enum
import typing

from repro.m3.kernel.capability import CapTable

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.pe import ProcessingElement
    from repro.sim.events import Event


class VpeState(enum.Enum):
    INIT = "init"  # created, nothing running yet
    RUNNING = "running"
    DEAD = "dead"  # exited or killed


class VpeObject:
    """One virtual processing element, bound to a physical PE."""

    def __init__(self, name: str, pe: "ProcessingElement", vpe_id: int):
        # Ids are allocated by the owning kernel, not a process-global
        # counter: exported traces must be a pure function of the run,
        # not of how many systems this Python process booted before it.
        self.id = vpe_id
        self.name = name
        self.pe = pe
        self.captable = CapTable(self)
        self.state = VpeState.INIT
        self.exit_code: object = None
        #: set when the kernel's watchdog declared this VPE's PE dead.
        self.failed = False
        #: pending VPE_WAIT replies: (waiting VPE, ringbuffer slot) pairs.
        self.waiters: list[tuple] = []
        #: pending vpe_wait_yield replies (context-switching waiters).
        self.yield_waiters: list[tuple] = []
        #: parked inter-kernel ``vpe_wait`` requests (ringbuffer slots on
        #: the owning kernel's kernel<->kernel endpoint) — the exit
        #: notification that makes VPE_WAIT work across kernel domains.
        self.remote_waiters: list[int] = []
        #: the kernel that owns this VPE (set at creation; ``None`` only
        #: for hand-built VPEs in unit tests).
        self.kernel = None
        #: events the kernel fires on exit (for boot-level joins).
        self.exit_events: list["Event"] = []
        # -- context-switching state (see repro.m3.kernel.ctxsw) --------
        #: whether the VPE currently occupies its PE.
        self.resident = True
        #: whether a saved SPM image exists in the staging area.
        self.saved = False
        #: DRAM staging area for the SPM image (queued/saved VPEs).
        self.staging_addr: int | None = None
        #: entry point recorded before the first switch-in.
        self.pending_entry: tuple | None = None
        #: a deferred syscall reply to deliver after restoration.
        self.parked_reply: tuple | None = None
        #: SPM bump-allocator mark captured at switch-out.
        self.saved_alloc_mark = 0
        #: how many times this VPE has been migrated between PEs.
        self.migrations = 0

    @property
    def node(self) -> int:
        return self.pe.node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VPE #{self.id} {self.name!r} on PE{self.node} {self.state.value}>"
