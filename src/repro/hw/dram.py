"""The DRAM module: one shared off-PE memory on the NoC.

Tomahawk "consists of multiple PEs, connected over a network-on-chip
and one DRAM module" (Section 4.1).  The module answers the DTUs'
RDMA request packets; software never touches it directly.
"""

from __future__ import annotations

import typing

from repro import params
from repro.hw.spm import Scratchpad
from repro.noc.packet import Packet

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network
    from repro.sim import Simulator


class DramModule:
    """NoC endpoint serving memory request packets against its DRAM array.

    The array is the same sparse model as a scratchpad
    (:class:`~repro.hw.spm.Scratchpad`): the Figure 6 configurations
    give a 40-PE system hundreds of MiB of DRAM of which only the
    filesystem image is ever touched.

    - ``mem_read``:  payload ``(requester_ep_transfer_id, address, length)``;
      responds with a ``mem_resp`` packet carrying the data bytes.
    - ``mem_write``: payload ``(transfer_id, address, data)``; applies the
      write after :data:`params.DRAM_ACCESS_CYCLES` and acks.
    """

    def __init__(self, sim: "Simulator", network: "Network", node: int, size: int,
                 access_cycles: int = params.DRAM_ACCESS_CYCLES):
        self.sim = sim
        self.network = network
        self.node = node
        self.memory = Scratchpad(size, name="dram")
        self.access_cycles = access_cycles
        self.reads = 0
        self.writes = 0
        network.attach(node, self.handle_packet)

    def handle_packet(self, packet: Packet) -> None:
        """NoC delivery entry point."""
        if packet.corrupted:
            # Link-level CRC failure: discard; a reliable DTU re-issues
            # the request when no response arrives.
            return
        if packet.kind == "mem_read":
            transfer_id, address, length = packet.payload
            self.reads += 1
            data = self.memory.read(address, length)
            self.sim.schedule(
                self.access_cycles, self._respond, (packet.source, transfer_id, data)
            )
        elif packet.kind == "mem_write":
            transfer_id, address, data = packet.payload
            self.writes += 1
            self.memory.write(address, data)
            self.sim.schedule(
                self.access_cycles, self._respond, (packet.source, transfer_id, b"")
            )
        else:
            raise RuntimeError(f"DRAM module got unexpected packet {packet!r}")

    def _respond(self, request: tuple) -> None:
        requester, transfer_id, data = request
        self.network.send(Packet(self.node, requester, "mem_resp", len(data),
                                 (transfer_id, data)))
