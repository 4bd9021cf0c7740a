"""The DRAM module: one shared off-PE memory on the NoC.

Tomahawk "consists of multiple PEs, connected over a network-on-chip
and one DRAM module" (Section 4.1).  The module answers the DTUs'
RDMA request packets; software never touches it directly.
"""

from __future__ import annotations

import functools
import typing

from repro import params
from repro.dtu.dtu import serve_memory
from repro.hw.spm import Scratchpad

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.network import Network
    from repro.sim import Simulator


def bulk_copy_cycles(nbytes: int) -> int:
    """Cycles to move ``nbytes`` in bulk between DRAM and an SPM: one
    DTU-speed pass plus one DRAM access."""
    return (max(1, nbytes // params.DTU_BYTES_PER_CYCLE)
            + params.DRAM_ACCESS_CYCLES)


class DramModule:
    """NoC endpoint serving memory request packets against its DRAM array.

    The array is the same sparse model as a scratchpad
    (:class:`~repro.hw.spm.Scratchpad`): the Figure 6 configurations
    give a 40-PE system hundreds of MiB of DRAM of which only the
    filesystem image is ever touched.

    Requests are answered by the DTU's memory server
    (:func:`repro.dtu.dtu.serve_memory`): a ``mem_read`` or
    ``mem_write`` touches the array at once, and its ``mem_resp`` —
    the bytes read, or nothing for a write — leaves after
    :data:`params.DRAM_ACCESS_CYCLES`, stamped with the request's
    trace context.
    """

    def __init__(self, sim: "Simulator", network: "Network", node: int, size: int):
        self.memory = Scratchpad(size, name="dram")
        # A partial, not a method: no Python frame of its own per request.
        network.attach(node, functools.partial(
            serve_memory, self.memory, sim, network, node,
            params.DRAM_ACCESS_CYCLES,
        ))
