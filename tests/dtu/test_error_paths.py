"""DTU error paths must not mutate endpoint state.

A rejected operation (MissingCredits, NoPermission) models the hardware
refusing to start a transfer: no credit is consumed, no register
changes, no ringbuffer movement, no packet leaves the DTU.  Software can
therefore retry or report the error without resynchronising state.
"""

import dataclasses

import pytest

from repro.dtu.dtu import MissingCredits, NoPermission
from repro.dtu.registers import EndpointRegisters, MemoryPerm
from tests.dtu.conftest import configure_channel, configure_memory_ep


def _snapshot(dtu):
    """Everything software-visible about a DTU's endpoint state."""
    eps = tuple(dataclasses.asdict(ep) for ep in dtu.eps)
    rings = {
        index: (
            ring._write_pos,
            ring._read_pos,
            tuple(ring._slots),
            ring.duplicates,
        )
        for index, ring in dtu._ringbufs.items()
    }
    return eps, rings, dtu.messages_sent, dtu.messages_dropped


@pytest.fixture
def wired(platform):
    sender, receiver = platform.pe(0).dtu, platform.pe(1).dtu
    configure_channel(sender, receiver, credits=2, slot_size=64)
    configure_memory_ep(sender, 2, platform.pe(2).node, 0, 1024,
                        perm=MemoryPerm.READ)
    return platform, sender, receiver


def _assert_unchanged(dtu, before, platform):
    assert _snapshot(dtu) == before
    assert platform.network.packets_sent == 0


def test_send_on_wrong_endpoint_kind_is_side_effect_free(wired):
    platform, sender, _receiver = wired
    before = _snapshot(sender)
    with pytest.raises(NoPermission):
        sender.send(1, payload=("x",), length=8)  # EP1 is unconfigured
    with pytest.raises(NoPermission):
        sender.send(2, payload=("x",), length=8)  # EP2 is a memory EP
    _assert_unchanged(sender, before, platform)


def test_oversized_message_is_side_effect_free(wired):
    platform, sender, _receiver = wired
    before = _snapshot(sender)
    with pytest.raises(NoPermission):
        sender.send(0, payload=("x",), length=4096)
    _assert_unchanged(sender, before, platform)
    assert sender.eps[0].credits == 2  # no credit was charged


def test_missing_credits_charges_nothing(wired):
    platform, sender, _receiver = wired
    sender.eps[0].credits = 0
    before = _snapshot(sender)
    with pytest.raises(MissingCredits):
        sender.send(0, payload=("x",), length=8)
    _assert_unchanged(sender, before, platform)
    assert sender.eps[0].credits == 0  # not driven negative either


def test_bad_reply_ep_rejected_before_credit_spend(wired):
    platform, sender, _receiver = wired
    before = _snapshot(sender)
    with pytest.raises(NoPermission):
        # EP2 is a memory endpoint, not a receive endpoint.
        sender.send(0, payload=("x",), length=8, reply_ep=2)
    _assert_unchanged(sender, before, platform)
    assert sender.eps[0].credits == 2


def test_reply_on_non_receive_ep_is_side_effect_free(wired):
    platform, sender, receiver = wired
    before = _snapshot(receiver)
    with pytest.raises(NoPermission):
        receiver.reply(0, 0, payload=("x",), length=8)
    _assert_unchanged(receiver, before, platform)


def test_reply_with_replies_disabled_keeps_slot_occupied(wired):
    platform, sender, receiver = wired

    def tx():
        yield sender.send(0, payload=("hello",), length=8)

    platform.pe(0).run(tx(), "tx")
    platform.sim.run()
    receiver.eps[1].replies_enabled = False
    fetched = receiver.fetch_message(1)
    assert fetched is not None
    before = _snapshot(receiver)
    sent_before = platform.network.packets_sent
    with pytest.raises(NoPermission):
        receiver.reply(1, fetched[0], payload=("pong",), length=8)
    assert _snapshot(receiver) == before
    assert platform.network.packets_sent == sent_before
    # The slot was NOT acked away by the failed reply.
    assert receiver.ringbuffer(1).occupied == 1


def test_memory_permission_and_bounds_are_side_effect_free(wired):
    platform, sender, _receiver = wired
    before = _snapshot(sender)
    with pytest.raises(NoPermission):
        next(sender.write_memory(2, 0, b"denied"))  # READ-only EP
    with pytest.raises(NoPermission):
        next(sender.read_memory(2, 1000, 100))  # out of bounds
    with pytest.raises(NoPermission):
        next(sender.read_memory(0, 0, 8))  # send EP, not memory
    _assert_unchanged(sender, before, platform)
    assert sender.idle  # no transaction was opened


def test_invalid_ep_index_is_side_effect_free(wired):
    platform, sender, _receiver = wired
    before = _snapshot(sender)
    with pytest.raises(ValueError):
        sender.send(len(sender.eps), payload=("x",), length=8)
    _assert_unchanged(sender, before, platform)
