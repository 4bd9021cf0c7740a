"""End-to-end message passing between two PEs' DTUs."""

import pytest

from repro.dtu import DtuError, MissingCredits, NoPermission
from tests.dtu.conftest import BOTH_MODES, build_platform, configure_channel


def test_send_delivers_message_with_label(platform):
    sender, receiver = platform.pe(0).dtu, platform.pe(1).dtu
    configure_channel(sender, receiver, label=0xBEEF)

    def sender_sw():
        yield sender.send(0, payload=("hello", 42), length=16)

    def receiver_sw():
        slot, message = yield from receiver.wait_message(1)
        receiver.ack_message(1, slot)
        return message

    platform.pe(0).run(sender_sw(), "tx")
    proc = platform.pe(1).run(receiver_sw(), "rx")
    platform.sim.run()
    message = proc.done.value
    assert message.payload == ("hello", 42)
    assert message.label == 0xBEEF  # receiver-chosen, unforgeable by sender


def test_send_consumes_credit_and_blocks_at_zero(platform):
    sender, receiver = platform.pe(0).dtu, platform.pe(1).dtu
    configure_channel(sender, receiver, credits=2)

    def sender_sw():
        yield sender.send(0, "a", 8)
        yield sender.send(0, "b", 8)
        with pytest.raises(MissingCredits):
            sender.send(0, "c", 8)

    platform.sim.run_process(sender_sw())
    assert sender.ep(0).credits == 0


def test_reply_refills_sender_credits(platform):
    sender, receiver = platform.pe(0).dtu, platform.pe(1).dtu
    configure_channel(sender, receiver, send_ep=0, recv_ep=1, credits=1)
    # A receive EP at the sender for replies.
    configure_channel(receiver, sender, send_ep=5, recv_ep=2)  # gives sender EP2

    def client():
        yield sender.send(0, "request", 8, reply_ep=2, reply_label=0x77)
        assert sender.ep(0).credits == 0
        slot, reply = yield from sender.wait_message(2)
        sender.ack_message(2, slot)
        return reply

    def server():
        slot, message = yield from receiver.wait_message(1)
        assert message.can_reply
        yield receiver.reply(1, slot, payload="response", length=8)

    platform.pe(1).run(server(), "server")
    proc = platform.pe(0).run(client(), "client")
    platform.sim.run()
    reply = proc.done.value
    assert reply.payload == "response"
    assert reply.label == 0x77  # reply label identifies the request
    assert sender.ep(0).credits == 1  # refilled by the reply


def test_reply_frees_the_slot(platform):
    sender, receiver = platform.pe(0).dtu, platform.pe(1).dtu
    configure_channel(sender, receiver, slot_count=1, credits=8)
    configure_channel(receiver, sender, send_ep=5, recv_ep=2)

    def client():
        for i in range(3):
            yield sender.send(0, i, 8, reply_ep=2)
            slot, reply = yield from sender.wait_message(2)
            sender.ack_message(2, slot)
            assert reply.payload == i * 10

    def server():
        for _ in range(3):
            slot, message = yield from receiver.wait_message(1)
            yield receiver.reply(1, slot, message.payload * 10, 8)

    platform.pe(1).run(server(), "server")
    platform.pe(0).run(client(), "client")
    platform.sim.run()
    assert receiver.ringbuffer(1).occupied == 0
    assert receiver.messages_dropped == 0


def test_message_to_unconfigured_ep_is_dropped(platform):
    sender, receiver = platform.pe(0).dtu, platform.pe(1).dtu
    configure_channel(sender, receiver)
    # Point the sender at an EP that is not configured as RECEIVE.
    sender.ep(0).target_ep = 7

    def sender_sw():
        yield sender.send(0, "lost", 8)

    platform.sim.run_process(sender_sw())
    platform.sim.run()
    assert receiver.messages_dropped == 1


def test_oversized_send_rejected(platform):
    sender, receiver = platform.pe(0).dtu, platform.pe(1).dtu
    configure_channel(sender, receiver, slot_size=64)
    with pytest.raises(NoPermission):
        sender.send(0, "x" * 100, length=100)


def test_send_on_non_send_ep_rejected(platform):
    dtu = platform.pe(0).dtu
    with pytest.raises(NoPermission):
        dtu.send(0, "x", 8)
    with pytest.raises(DtuError):
        dtu.reply(0, 0, "x", 8)


def test_ring_overflow_drops_when_credits_exceed_slots(platform):
    """"the receiver should not hand out more credits than buffer space
    is available, because messages are dropped if no space is left"."""
    sender, receiver = platform.pe(0).dtu, platform.pe(1).dtu
    configure_channel(sender, receiver, credits=4, slot_count=2)

    def sender_sw():
        for i in range(4):
            yield sender.send(0, i, 8)

    platform.sim.run_process(sender_sw())
    platform.sim.run()
    assert receiver.ringbuffer(1).occupied == 2
    assert receiver.messages_dropped == 2


def test_per_sender_fifo_order(platform):
    sender, receiver = platform.pe(0).dtu, platform.pe(1).dtu
    configure_channel(sender, receiver, credits=8, slot_count=8)

    def sender_sw():
        for i in range(5):
            yield sender.send(0, i, 8)

    received = []

    def receiver_sw():
        for _ in range(5):
            slot, message = yield from receiver.wait_message(1)
            received.append(message.payload)
            receiver.ack_message(1, slot)

    platform.pe(0).run(sender_sw(), "tx")
    platform.pe(1).run(receiver_sw(), "rx")
    platform.sim.run()
    assert received == [0, 1, 2, 3, 4]


def test_transfer_time_charged_to_xfer_tag(platform):
    sender, receiver = platform.pe(0).dtu, platform.pe(1).dtu
    configure_channel(sender, receiver)

    def sender_sw():
        yield sender.send(0, "x", 32)

    platform.sim.run_process(sender_sw())
    assert platform.sim.ledger.snapshot().get("xfer", 0) > 0
    assert platform.sim.ledger.snapshot().get("app", 0) == 0


# -- the credit refill rule, per mode ---------------------------------------
#
# A reply carries the refill for the send endpoint that paid for the
# request.  Best-effort, it refills on arrival whatever becomes of the
# reply itself — nothing will send it again.  Reliable, it refills once
# the reply is *accepted*: a refused one is not acked and comes again,
# and side effects happen once per sequence number.  Either way the
# credits never pass the endpoint's ceiling.

def _request_reply_pair(reliable, reply_slots=1):
    """Client PE0 (send EP0 with 2 credits, reply EP2) and server PE1."""
    platform = build_platform(reliable)
    client, server = platform.pe(0).dtu, platform.pe(1).dtu
    configure_channel(client, server, credits=2)
    configure_channel(server, client, send_ep=5, recv_ep=2,
                      slot_count=reply_slots)

    def serve(count):
        for _ in range(count):
            slot, message = yield from server.wait_message(1)
            server.reply(1, slot, message.payload, 8)

    return platform, client, serve


@BOTH_MODES
def test_reply_refused_by_a_full_ring(reliable):
    platform, client, serve = _request_reply_pair(reliable, reply_slots=1)
    platform.pe(1).run(serve(2), "server")
    client.send(0, "first", 8, reply_ep=2)
    client.send(0, "second", 8, reply_ep=2)
    assert client.ep(0).credits == 0
    platform.sim.run(until=400)  # both replies arrived; one found no slot
    assert client.messages_dropped == 1
    assert client.ringbuffer(2).occupied == 1
    assert client.ep(0).credits == (1 if reliable else 2)
    slot, _reply = client.fetch_message(2)
    client.ack_message(2, slot)  # room for the reliable retransmit
    platform.sim.run()
    assert client.ep(0).credits == 2
    assert client.ringbuffer(2).occupied == (1 if reliable else 0)


@BOTH_MODES
def test_reply_refused_by_an_invalidated_endpoint(reliable):
    platform, client, serve = _request_reply_pair(reliable)
    platform.pe(1).run(serve(1), "server")
    client.send(0, "request", 8, reply_ep=2)
    client.configure_local("invalidate", 2)
    platform.sim.run(until=400)
    assert client.messages_dropped == 1
    assert client.ep(0).credits == (1 if reliable else 2)
    configure_channel(platform.pe(1).dtu, client, send_ep=5, recv_ep=2)
    platform.sim.run()
    assert client.ep(0).credits == 2
    assert (client.fetch_message(2) is not None) == reliable


@BOTH_MODES
def test_refill_never_passes_the_ceiling(reliable):
    platform, client, serve = _request_reply_pair(reliable)
    platform.pe(1).run(serve(1), "server")
    client.send(0, "request", 8, reply_ep=2)
    configure_channel(client, platform.pe(1).dtu, credits=2)  # a kernel regrant
    assert client.ep(0).credits == 2
    platform.sim.run()
    assert client.fetch_message(2) is not None  # the reply did arrive
    assert client.ep(0).credits == client.ep(0).max_credits == 2
