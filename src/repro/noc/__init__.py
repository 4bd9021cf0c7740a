"""Packet-switched network-on-chip substrate.

The Tomahawk platform connects all processing elements and the DRAM
module over a NoC (paper Section 1.4).  This package models a 2D mesh
with dimension-ordered (XY) routing and per-link contention: every link
is a serial resource that packets reserve for their serialisation time,
which is a standard wormhole approximation that avoids per-flit events
while still producing queueing under load.
"""

from repro.noc.topology import MeshTopology
from repro.noc.routing import XYRouter
from repro.noc.link import Link
from repro.noc.packet import Packet
from repro.noc.network import Network

__all__ = ["MeshTopology", "XYRouter", "Link", "Packet", "Network"]
