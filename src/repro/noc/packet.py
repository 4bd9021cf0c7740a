"""NoC packets."""

from __future__ import annotations

import itertools

_packet_ids = itertools.count()


class Packet:
    """A unit of NoC traffic.

    ``size_bytes`` drives the timing model (header + payload wire
    bytes); ``payload`` carries the simulated content (a message object
    or raw bytes) to the receiving hardware model.  ``corrupted`` is
    set by an installed fault plan (in-flight bit errors): receivers
    detect it through the NoC's link-level CRC and discard the packet
    (reliable DTU channels then retransmit).  ``trace_id`` /
    ``trace_parent`` are the causal trace context (they mirror the
    MessageHeader stamp, and are also set on headerless memory/config
    packets so RDMA transactions join the request trace):
    ``trace_id < 0`` means untraced, ``trace_parent`` is the span the
    packet's in-network span is parented on.

    One is allocated per message, ack and memory transaction, hence
    the slots and the hand-written constructor.
    """

    __slots__ = ("source", "destination", "kind", "size_bytes", "payload",
                 "corrupted", "trace_id", "trace_parent", "packet_id")

    def __init__(self, source: int, destination: int, kind: str,
                 size_bytes: int, payload: object = None, trace_id: int = -1,
                 trace_parent: int = -1, corrupted: bool = False):
        if size_bytes < 0:
            raise ValueError(f"negative packet size: {size_bytes}")
        self.source = source
        self.destination = destination
        self.kind = kind  # "message" | "reply" | "msg_ack" | "mem_read" | ...
        self.size_bytes = size_bytes
        self.payload = payload
        self.corrupted = corrupted
        self.trace_id = trace_id
        self.trace_parent = trace_parent
        self.packet_id = next(_packet_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.packet_id} {self.kind} "
            f"{self.source}->{self.destination} {self.size_bytes}B>"
        )
