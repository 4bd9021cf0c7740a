"""Platform assembly: the simulated Tomahawk-like chip.

A platform is a mesh NoC with one DRAM module and a set of PEs whose
core types are given by a :class:`PlatformConfig`.  Node numbering is
row-major; the DRAM module occupies the last node, PEs fill the mesh
from node 0.
"""

from __future__ import annotations

import dataclasses

from repro import params
from repro.hw.core import CORE_TYPES
from repro.hw.dram import DramModule
from repro.hw.pe import ProcessingElement
from repro.noc.network import Network
from repro.noc.topology import MeshTopology
from repro.sim import Simulator


@dataclasses.dataclass
class PlatformConfig:
    """Shape of the simulated chip."""

    #: core type name per PE, in node order (see :data:`repro.hw.core.CORE_TYPES`).
    pe_types: list
    mesh_width: int = params.DEFAULT_MESH_WIDTH
    mesh_height: int = params.DEFAULT_MESH_HEIGHT
    dram_bytes: int = 64 * 1024 * 1024
    noc_hop_cycles: int = params.NOC_HOP_CYCLES
    noc_bytes_per_cycle: int = params.NOC_BYTES_PER_CYCLE
    ep_count: int = params.DTU_ENDPOINTS

    def __post_init__(self):
        capacity = self.mesh_width * self.mesh_height - 1  # one node for DRAM
        if len(self.pe_types) > capacity:
            raise ValueError(
                f"{len(self.pe_types)} PEs do not fit a "
                f"{self.mesh_width}x{self.mesh_height} mesh with one DRAM node"
            )
        unknown = [t for t in self.pe_types if t not in CORE_TYPES]
        if unknown:
            raise ValueError(f"unknown core types: {unknown}")


class Platform:
    """The assembled chip: simulator, NoC, PEs, DRAM."""

    def __init__(self, config: PlatformConfig):
        self.topology = MeshTopology(config.mesh_width, config.mesh_height)
        self.sim = Simulator()
        self.network = Network(
            self.sim,
            self.topology,
            hop_cycles=config.noc_hop_cycles,
            bytes_per_cycle=config.noc_bytes_per_cycle,
        )
        self.dram_node = self.topology.node_count - 1
        self.dram = DramModule(
            self.sim, self.network, self.dram_node, config.dram_bytes
        )
        self.pes: list[ProcessingElement] = [
            ProcessingElement(
                self.sim,
                self.network,
                node,
                CORE_TYPES[type_name],
                ep_count=config.ep_count,
            )
            for node, type_name in enumerate(config.pe_types)
        ]

    def pe(self, node: int) -> ProcessingElement:
        """The PE at ``node`` (which must not be the DRAM node)."""
        if not (0 <= node < len(self.pes)):
            raise ValueError(f"no PE at node {node}")
        return self.pes[node]

    def find_free_pe(self, core_type: str | None = None,
                     nodes=None) -> ProcessingElement | None:
        """First unoccupied PE, optionally of a requested core type.

        This is the kernel's PE-allocation primitive: "the application
        can request a specific type of PE — for example a specific
        accelerator" (Section 4.5.5).  ``nodes`` restricts the search to
        a set of node ids — each kernel of a partitioned mesh only
        allocates PEs inside its own domain.
        """
        for pe in self.pes:
            if pe.busy or pe.failed:
                continue
            if nodes is not None and pe.node not in nodes:
                continue
            if core_type is not None and pe.core.name != core_type:
                continue
            return pe
        return None

    def enable_reliable_messaging(self) -> None:
        """Switch every DTU on the chip to reliable delivery
        (sequence-numbered, acknowledged, retransmitted — see
        :meth:`repro.dtu.dtu.DTU.enable_reliability`)."""
        for pe in self.pes:
            pe.dtu.enable_reliability()

    @classmethod
    def build(cls, pe_count: int = 8, accelerators: dict | None = None,
              **config_kwargs) -> "Platform":
        """Convenience constructor: ``pe_count`` Xtensa PEs plus optional
        accelerators given as ``{"fft-accel": 1, ...}``."""
        types = ["xtensa"] * pe_count
        for name, count in (accelerators or {}).items():
            types.extend([name] * count)
        return cls(PlatformConfig(pe_types=types, **config_kwargs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Platform {self.topology.width}x{self.topology.height} "
            f"{len(self.pes)} PEs>"
        )
