"""Unit and property tests for the receive ringbuffer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dtu import Message, MessageHeader, RingBuffer
from repro.dtu.message import HEADER_BYTES
from tests.dtu.conftest import configure_channel


def _msg(payload="x", label=0, length=8):
    return Message(MessageHeader(label=label, length=length), payload)


def test_push_and_fetch_in_order():
    ring = RingBuffer(slot_size=64, slot_count=4)
    for i in range(3):
        ring.push(_msg(payload=i, label=i))
    for expected in range(3):
        slot, message = ring.fetch()
        assert message.payload == expected
        ring.ack(slot)


def test_fetch_on_empty_returns_none():
    ring = RingBuffer(slot_size=64, slot_count=2)
    assert ring.fetch() is None


def test_full_ring_drops():
    ring = RingBuffer(slot_size=64, slot_count=2)
    assert ring.push(_msg(0)) is not None
    assert ring.push(_msg(1)) is not None
    assert ring.push(_msg(2)) is None
    assert ring.dropped == 1
    assert ring.occupied == 2


def test_slot_freed_by_ack_is_reusable():
    ring = RingBuffer(slot_size=64, slot_count=2)
    slot, _ = (ring.push(_msg(0)), ring.fetch())[1]
    ring.ack(slot)
    assert ring.push(_msg(1)) is not None
    assert ring.push(_msg(2)) is not None  # wrapped around into freed slot


def test_unacked_slot_blocks_writer_even_after_fetch():
    """Fetch advances the read position but the slot stays occupied
    until ack — a fetched-but-unprocessed message is never overwritten."""
    ring = RingBuffer(slot_size=64, slot_count=2)
    ring.push(_msg("a"))
    ring.push(_msg("b"))
    ring.fetch()  # read "a" but do not ack
    assert ring.push(_msg("c")) is None


def test_a_ring_of_read_unacked_messages_has_nothing_unread():
    """Once every slot holds a message that was read but not acked, the
    read position has wrapped onto slot 0 again: it is held, not unread."""
    ring = RingBuffer(slot_size=64, slot_count=4)
    for i in range(4):
        ring.push(_msg(payload=i))
    assert [ring.fetch()[1].payload for _ in range(4)] == [0, 1, 2, 3]
    assert ring.fetch() is None
    assert ring.occupied == 4


def test_a_message_pushed_into_an_acked_slot_is_the_next_read():
    ring = RingBuffer(slot_size=64, slot_count=4)
    for i in range(4):
        ring.push(_msg(payload=i))
    for _ in range(4):
        ring.fetch()
    ring.ack(0)
    assert ring.push(_msg(payload="new")) == 0
    slot, message = ring.fetch()
    assert (slot, message.payload) == (0, "new")
    assert ring.fetch() is None


def test_fetch_message_hands_a_read_message_out_once(platform):
    sender, receiver = platform.pe(0).dtu, platform.pe(1).dtu
    configure_channel(sender, receiver, credits=5, slot_count=4)
    for i in range(4):
        sender.send(0, i, 8)
    platform.sim.run()
    assert [receiver.fetch_message(1)[1].payload for _ in range(4)] == [0, 1, 2, 3]
    assert receiver.fetch_message(1) is None
    receiver.ack_message(1, 0)
    sender.send(0, "new", 8)
    platform.sim.run()
    slot, message = receiver.fetch_message(1)
    assert (slot, message.payload) == (0, "new")
    assert receiver.fetch_message(1) is None


def test_oversized_message_rejected():
    ring = RingBuffer(slot_size=32, slot_count=2)
    with pytest.raises(ValueError):
        ring.push(_msg(length=32))  # 32 + HEADER_BYTES > 32


def test_peek_and_double_ack():
    ring = RingBuffer(slot_size=64, slot_count=2)
    ring.push(_msg("data"))
    slot, message = ring.fetch()
    assert ring.peek(slot) is message
    ring.ack(slot)
    with pytest.raises(ValueError):
        ring.ack(slot)
    with pytest.raises(ValueError):
        ring.peek(slot)


def test_invalid_geometry():
    with pytest.raises(ValueError):
        RingBuffer(slot_size=0, slot_count=4)
    with pytest.raises(ValueError):
        RingBuffer(slot_size=64, slot_count=0)


@given(st.lists(st.sampled_from(["push", "consume"]), max_size=200),
       st.integers(min_value=1, max_value=8))
def test_ringbuffer_behaves_like_bounded_fifo(operations, slots):
    """Against a reference deque: order preserved, drops exactly when full."""
    import collections

    ring = RingBuffer(slot_size=64, slot_count=slots)
    reference = collections.deque()
    sequence = 0
    for op in operations:
        if op == "push":
            slot = ring.push(_msg(payload=sequence))
            if len(reference) < slots:
                assert slot is not None
                reference.append(sequence)
            else:
                assert slot is None
            sequence += 1
        else:
            fetched = ring.fetch()
            if reference:
                slot, message = fetched
                assert message.payload == reference.popleft()
                ring.ack(slot)
            else:
                assert fetched is None
    assert ring.occupied == len(reference)


def _reliable_message(seq, payload="x"):
    return Message(MessageHeader(label=0, length=8, seq=seq), payload)


def test_retransmit_after_full_ring_drop_is_delivered():
    """A reliable message dropped because the ring was full must NOT be
    recorded as seen: its retransmit is a first delivery, not a
    duplicate.  Only messages that were actually accepted deduplicate."""
    from repro.dtu.ringbuffer import DUPLICATE

    ring = RingBuffer(slot_size=64, slot_count=2)
    assert ring.push(_reliable_message(0), source=7) is not None
    assert ring.push(_reliable_message(1), source=7) is not None
    assert ring.push(_reliable_message(2), source=7) is None  # full: dropped
    assert ring.dropped == 1

    slot, _ = ring.fetch()
    ring.ack(slot)
    # The sender retransmits seq 2 after the ack was never seen.
    assert ring.push(_reliable_message(2), source=7) not in (None, DUPLICATE)
    assert ring.duplicates == 0
    # A retransmit of the now-accepted message IS suppressed.
    assert ring.push(_reliable_message(2), source=7) is DUPLICATE
    assert ring.duplicates == 1


def test_occupied_counter_matches_slot_scan():
    """The maintained occupancy counter stays exact through pushes,
    fetches, acks, drops, duplicates, and wrap-around."""
    ring = RingBuffer(slot_size=64, slot_count=4)

    def scan():
        return sum(slot is not None for slot in ring._slots)

    for seq in range(4):
        ring.push(_reliable_message(seq), source=1)
        assert ring.occupied == scan()
    ring.push(_reliable_message(4), source=1)  # dropped: full
    assert ring.occupied == scan() == 4
    for _ in range(2):
        slot, _ = ring.fetch()
        ring.ack(slot)
        assert ring.occupied == scan()
    ring.push(_reliable_message(1), source=1)  # duplicate: suppressed
    assert ring.occupied == scan() == 2
    ring.push(_reliable_message(5), source=1)  # wraps into a freed slot
    assert ring.occupied == scan() == 3
