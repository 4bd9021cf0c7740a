"""Core models.

The DTU abstracts from core heterogeneity; for the simulation, cores
differ only in which computations they accelerate.  A core type maps
named operations to cycle costs — the FFT accelerator executes the
``fft`` operation ~30x faster than a general-purpose core (paper
Section 5.8), everything else at parity.
"""

from __future__ import annotations

import dataclasses
import math

from repro import params


@dataclasses.dataclass(frozen=True)
class CoreType:
    """A kind of core: its name and per-operation cost densities."""

    name: str
    #: cycles per byte for named operations this core accelerates or runs
    #: in software; operations not listed cannot run on this core unless
    #: ``general_purpose`` is set.
    op_cycles_per_byte: dict = dataclasses.field(default_factory=dict)
    general_purpose: bool = True

    def cycles_for(self, operation: str, nbytes: int) -> int:
        """Cycle cost of running ``operation`` over ``nbytes`` here."""
        if operation in self.op_cycles_per_byte:
            density = self.op_cycles_per_byte[operation]
        elif self.general_purpose:
            raise KeyError(
                f"core type {self.name!r} has no cost entry for {operation!r}"
            )
        else:
            raise ValueError(
                f"core type {self.name!r} cannot execute {operation!r}"
            )
        return max(1, math.ceil(density * nbytes))


#: General-purpose Xtensa-like RISC core (the default PE of Tomahawk).
XTENSA = CoreType(
    name="xtensa",
    op_cycles_per_byte={"fft": params.FFT_SW_CYCLES_PER_BYTE},
)

#: Core with FFT instruction extensions (Section 5.8): ~30x faster FFT.
FFT_ACCEL = CoreType(
    name="fft-accel",
    op_cycles_per_byte={
        "fft": params.FFT_SW_CYCLES_PER_BYTE / params.FFT_ACCEL_SPEEDUP
    },
)

#: A fixed-function accelerator that can run *only* the FFT (no kernel,
#: no general-purpose software) — the kind of PE NoC-level isolation
#: exists to support.
FFT_ASIC = CoreType(
    name="fft-asic",
    op_cycles_per_byte={
        "fft": params.FFT_SW_CYCLES_PER_BYTE / params.FFT_ACCEL_SPEEDUP
    },
    general_purpose=False,
)

CORE_TYPES: dict[str, CoreType] = {
    core.name: core for core in (XTENSA, FFT_ACCEL, FFT_ASIC)
}

