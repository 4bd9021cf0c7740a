"""Messages and their headers.

"Messages consist of a header and a payload.  The header is
automatically prepended to the payload by the DTU and contains a label,
the length of the message, and information for a potential reply"
(Section 4.4.2).
"""

from __future__ import annotations

import typing

#: Wire size of the header the DTU prepends (label, length, reply info).
#: The reliable-delivery sequence number fits the padding of the 16-byte
#: header, so enabling reliability does not change any wire size.  (The
#: checksum is the NoC's link-level one: ``Packet.corrupted``.)
HEADER_BYTES = 16


class MessageHeader(typing.NamedTuple):
    """DTU-generated metadata prepended to every message (immutable;
    a named tuple because one is built per message sent)."""

    #: receiver-chosen sender identification (unforgeable; Section 4.4.2).
    label: int
    #: payload length in bytes.
    length: int
    #: where a reply must go; ``reply_node < 0`` means replies disallowed.
    reply_node: int = -1
    reply_ep: int = -1
    #: label to attach to the reply (identifies the replied-to request).
    reply_label: int = 0
    #: send endpoint at the sender whose credits a reply refills.
    credit_ep: int = -1
    #: reliable-delivery sequence number, unique per sending DTU;
    #: ``seq < 0`` marks a best-effort message (no ack, no retransmit).
    seq: int = -1
    #: causal trace context, stamped by the sending DTU when an
    #: Observer is installed.  Like seq these ride the padding of
    #: the 16-byte header, so tracing does not change any wire size.
    #: ``trace_id < 0`` means the message is untraced.
    trace_id: int = -1
    #: span id of this message's own DTU span at the sender — the
    #: parent that receiver-side handler spans adopt.
    parent_span: int = -1


class Message(typing.NamedTuple):
    """A delivered message sitting in a ringbuffer slot."""

    header: MessageHeader
    payload: object

    @property
    def label(self) -> int:
        return self.header.label

    @property
    def can_reply(self) -> bool:
        return self.header.reply_node >= 0

    def size_bytes(self) -> int:
        """Wire size: header plus declared payload length."""
        return HEADER_BYTES + self.header.length

