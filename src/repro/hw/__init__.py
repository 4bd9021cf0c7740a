"""Hardware platform models: cores, memories, processing elements.

A processing element (PE) is "the combination of core, local memory
(scratchpad or cache) and DTU" (paper Section 2.2).  The platform
assembles PEs and one DRAM module on the NoC, mirroring the simulated
Tomahawk configuration of Section 4.1.
"""

from repro.hw.spm import Scratchpad
from repro.hw.dram import DramModule
from repro.hw.core import CoreType, CORE_TYPES
from repro.hw.pe import ProcessingElement
from repro.hw.platform import Platform, PlatformConfig

__all__ = [
    "Scratchpad",
    "DramModule",
    "CoreType",
    "CORE_TYPES",
    "ProcessingElement",
    "Platform",
    "PlatformConfig",
]
