"""Receive-endpoint ringbuffers.

"Ringbuffers at the receive endpoints allow receivers to simultaneously
accept messages from multiple senders. ... Upon the reception of a
message, the DTU writes the received message at the current write
position and moves the write position forward.  The software in turn
advances the buffer's current read position" (Section 4.4.3).
Messages are dropped if no slot is free — senders are expected to be
throttled by credits before that happens.
"""

from __future__ import annotations

import collections

from repro import params
from repro.dtu.message import Message

#: sentinel returned by :meth:`RingBuffer.push` for a suppressed
#: duplicate: the message was already delivered once, so the receiver
#: must re-acknowledge it but not deliver it again.
DUPLICATE = object()


class RingBuffer:
    """Fixed-slot ringbuffer holding delivered messages."""

    def __init__(self, slot_size: int, slot_count: int):
        if slot_size <= 0 or slot_count <= 0:
            raise ValueError("ringbuffer geometry must be positive")
        self.slot_size = slot_size
        self.slot_count = slot_count
        self._slots: list[Message | None] = [None] * slot_count
        self._write_pos = 0
        self._read_pos = 0
        self._occupied = 0
        self.delivered = 0
        self.dropped = 0
        #: reliable delivery: recently accepted (source, seq) pairs, so a
        #: retransmit whose ack was lost is re-acked but not re-delivered.
        self._seen: collections.OrderedDict = collections.OrderedDict()
        self.duplicates = 0

    @property
    def occupied(self) -> int:
        """Number of slots holding unacknowledged messages.

        Maintained incrementally by :meth:`push`/:meth:`ack` — credit
        checks consult this on every message, so an O(slot_count) scan
        here made large receive endpoints scale superlinearly.
        """
        return self._occupied

    def push(self, message: Message, source: int = -1):
        """Store a delivered message.

        Returns the chosen slot, ``None`` if the ring is full (the
        message is dropped), or :data:`DUPLICATE` when a reliable
        message (``header.seq >= 0``) from ``source`` was already
        accepted — the caller re-acks without delivering twice.
        """
        size = message.size_bytes()
        if size > self.slot_size:
            # The sender's DTU enforces the size limit; this guards against
            # misconfiguration.  Slot size counts header plus payload.
            raise ValueError(
                f"message of {size}B exceeds slot of {self.slot_size}B"
            )
        seq = message.header.seq
        if seq >= 0 and (source, seq) in self._seen:
            self.duplicates += 1
            return DUPLICATE
        slot = self._write_pos
        if self._slots[slot] is not None:  # ring full: not acked yet
            self.dropped += 1
            return None
        self._slots[slot] = message
        self._write_pos = (slot + 1) % self.slot_count
        self._occupied += 1
        self.delivered += 1
        if seq >= 0:
            # Record only accepted messages: a retransmit of a message
            # dropped here (ring full) must still be deliverable.
            self._seen[(source, seq)] = True
            while len(self._seen) > params.DTU_DEDUP_WINDOW:
                self._seen.popitem(last=False)
        return slot

    def fetch(self) -> tuple[int, Message] | None:
        """The oldest unread message and its slot, advancing the read position.

        The message stays occupied until :meth:`ack` — software processes
        it in place and acknowledges when done.
        """
        if self._slots[self._read_pos] is None:
            return None
        slot = self._read_pos
        message = self._slots[slot]
        self._read_pos = (slot + 1) % self.slot_count
        return slot, message

    def peek(self, slot: int) -> Message:
        """The message occupying ``slot`` (for reply processing)."""
        message = self._slots[slot]
        if message is None:
            raise ValueError(f"slot {slot} is empty")
        return message

    def retarget_reply(self, slot: int, node: int, ep_index: int) -> None:
        """Address the reply to the message parked in ``slot`` (if
        any) to ``(node, ep_index)``: its sender has moved since."""
        message = self._slots[slot]
        if message is not None and message.header.reply_node != node:
            header = message.header._replace(reply_node=node,
                                             reply_ep=ep_index)
            self._slots[slot] = message._replace(header=header)

    def ack(self, slot: int) -> None:
        """Mark ``slot`` processed, freeing it for new messages."""
        if self._slots[slot] is None:
            raise ValueError(f"slot {slot} already free")
        self._slots[slot] = None
        self._occupied -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RingBuffer {self.occupied}/{self.slot_count} slots of "
            f"{self.slot_size}B>"
        )
