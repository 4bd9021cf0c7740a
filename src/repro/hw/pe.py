"""Processing elements: core + scratchpad + DTU at one NoC node."""

from __future__ import annotations

import typing

from repro import params
from repro.dtu.dtu import DTU
from repro.hw.core import Core, CoreType
from repro.hw.spm import Scratchpad

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network
    from repro.sim import Simulator
    from repro.sim.process import Process


class ProcessingElement:
    """One PE: "the combination of core, local memory ... and DTU"."""

    def __init__(
        self,
        sim: "Simulator",
        network: "Network",
        node: int,
        core_type: CoreType,
        ep_count: int = params.DTU_ENDPOINTS,
    ):
        self.sim = sim
        self.node = node
        self.core = Core(core_type)
        self.spm_code = Scratchpad(params.SPM_CODE_BYTES, name=f"pe{node}.code")
        self.spm_data = Scratchpad(params.SPM_DATA_BYTES, name=f"pe{node}.data")
        self.dtu = DTU(sim, network, node, self.spm_data, ep_count=ep_count)
        # The DTU can report the core's halted bit (the kernel watchdog's
        # "probe" configuration operation) — the DTU is separate hardware
        # and keeps answering even when the core is dead.
        self.dtu.status_source = self
        #: set when the core has suffered a permanent fault (fail-stop).
        self.failed = False
        #: the software currently occupying this PE (None when free).
        self.occupant: "Process | None" = None
        #: set while a kernel has claimed the PE for a VPE that has not
        #: started yet (so concurrent creates cannot double-book it).
        self.reserved = False
        #: simple bump allocator over the data SPM for software buffers:
        #: the next free address.  Part of the PE-local state a kernel
        #: saves and restores when it moves software between PEs.
        self.alloc_mark = 0

    @property
    def busy(self) -> bool:
        """Whether software occupies this PE or a kernel reserved it."""
        return self.reserved or (self.occupant is not None and self.occupant.alive)

    def reserve(self) -> None:
        """Claim a free PE for a VPE that will start later."""
        if self.busy:
            raise RuntimeError(f"PE {self.node} is not free")
        self.reserved = True

    def run(self, generator, name: str | None = None) -> "Process":
        """Start bare-metal software on this PE (one occupant at a time)."""
        if self.occupant is not None and self.occupant.alive:
            raise RuntimeError(f"PE {self.node} is already running software")
        process = self.sim.process(generator, name or f"pe{self.node}.sw")
        self.occupant = process
        self.reserved = False
        return process

    def fail(self, cause: object = "pe-fault") -> None:
        """Fail-stop the core: it halts permanently, mid-instruction.

        The DTU keeps running (it is separate hardware on the same
        node), which is what lets the kernel detect the failure via a
        remote probe and recover.  The occupant process is interrupted
        so the simulation does not keep executing dead software.
        """
        self.failed = True
        occupant = self.occupant
        if occupant is not None and occupant.alive:
            try:
                occupant.interrupt(cause)
            except RuntimeError:
                # The occupant is not blocked yet (it was created this
                # very cycle); halt it as soon as it first blocks.
                self.sim.call_soon(
                    lambda _: occupant.interrupt(cause)
                    if occupant.alive else None
                )

    def core_alive(self) -> bool:
        """The halted bit the DTU's "probe" operation reports."""
        return not self.failed

    def release(self) -> None:
        """Mark the PE free again (after its occupant finished or was reset)."""
        self.occupant = None
        self.reserved = False
        self.alloc_mark = 0

    def alloc_buffer(self, nbytes: int) -> int:
        """Reserve ``nbytes`` of data SPM; returns the start address.

        A bump allocator is enough: the SPM is wiped when a new
        application is loaded onto the PE.
        """
        if nbytes < 0:
            raise ValueError("negative buffer size")
        address = self.alloc_mark
        if address + nbytes > self.spm_data.size:
            raise MemoryError(
                f"PE {self.node}: SPM exhausted "
                f"({address + nbytes} > {self.spm_data.size})"
            )
        self.alloc_mark = address + nbytes
        return address

    def compute(self, cycles: int):
        """An event representing ``cycles`` of application computation."""
        return self.sim.delay(cycles, tag="app")

    def compute_op(self, operation: str, nbytes: int):
        """Application computation priced by this PE's core type."""
        return self.compute(self.core.cycles_for(operation, nbytes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PE node={self.node} core={self.core.type.name}>"
