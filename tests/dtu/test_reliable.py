"""Reliable DTU delivery: acks, retransmits, dedup, credit reconciliation."""

import pytest

from repro import params
from repro.dtu.dtu import TransferTimeout
from repro.dtu.registers import EndpointRegisters
from repro.faults import FaultPlan
from tests.dtu.conftest import (
    build_platform,
    configure_channel,
    configure_memory_ep,
)

# Where the software-visible contract is the same in both modes, it is
# pinned by one test: these run in their own modules on best-effort
# DTUs and are collected here a second time, on this module's reliable
# ``platform``.  (Not the ones about a message the receiver refuses —
# there the modes differ on purpose: see the refill-rule tests in
# test_messaging and the give-up test below — nor the event-count
# table, which covers both modes itself.)
from tests.dtu.test_memory import (  # noqa: F401
    test_bounds_checked_against_region,
    test_dram_write_then_read_roundtrip,
    test_memory_op_on_wrong_ep_kind,
    test_memory_roundtrip_charged_as_xfer,
    test_permissions_enforced,
    test_read_into_local_spm,
    test_remote_spm_access_is_rdma,
    test_transfer_bandwidth_dominates_large_reads,
    test_write_from_local_spm,
)
from tests.dtu.test_messaging import (  # noqa: F401
    test_oversized_send_rejected,
    test_per_sender_fifo_order,
    test_reply_frees_the_slot,
    test_reply_refills_sender_credits,
    test_send_consumes_credit_and_blocks_at_zero,
    test_send_delivers_message_with_label,
    test_send_on_non_send_ep_rejected,
    test_transfer_time_charged_to_xfer_tag,
)


@pytest.fixture
def platform():
    return build_platform(reliable=True)


def _channel(platform, **kwargs):
    sender, receiver = platform.pe(0).dtu, platform.pe(1).dtu
    configure_channel(sender, receiver, **kwargs)
    return sender, receiver


def test_reliable_send_is_acked_not_retransmitted(platform):
    sender, receiver = _channel(platform)

    def tx():
        yield sender.send(0, payload=("hi",), length=8)

    platform.pe(0).run(tx(), "tx")
    platform.sim.run()
    slot_msg = receiver.fetch_message(1)
    assert slot_msg is not None
    assert slot_msg[1].header.seq >= 0
    assert receiver.acks_sent == 1
    assert sender.retransmits == 0
    # The ack settled the transfer: nothing left to resend or await.
    assert sender.idle


def test_lost_message_is_retransmitted_and_delivered(platform):
    # Drop exactly the first matching message packet, nothing else.
    FaultPlan(seed=1).drop(1.0, kinds=("message",),
                           window=(0, 30)).install(platform)
    sender, receiver = _channel(platform)

    def tx():
        yield sender.send(0, payload=("persist",), length=8)

    platform.pe(0).run(tx(), "tx")
    platform.sim.run()
    assert platform.network.packets_lost >= 1
    assert sender.retransmits >= 1
    fetched = receiver.fetch_message(1)
    assert fetched is not None and fetched[1].payload == ("persist",)


def test_corrupted_message_is_retransmitted_intact(platform):
    """A retransmission resends the same ``Packet``: the corruption of
    its first crossing must not stick to it (every copy used to be
    CRC-dropped, and the transfer gave up)."""
    FaultPlan(seed=1).corrupt(1.0, kinds=("message",),
                              window=(0, 30)).install(platform)
    sender, receiver = _channel(platform)

    def tx():
        yield sender.send(0, payload=("intact",), length=8)

    platform.pe(0).run(tx(), "tx")
    platform.sim.run()
    assert receiver.crc_drops == 1
    assert platform.network.packets_corrupted == 1
    fetched = receiver.fetch_message(1)
    assert fetched is not None and fetched[1].payload == ("intact",)


def test_lost_ack_triggers_dup_suppression(platform):
    # The message gets through; its ack is dropped once, so the sender
    # retransmits and the receiver must re-ack without re-delivering.
    FaultPlan(seed=1).drop(1.0, kinds=("msg_ack",),
                           window=(0, 30)).install(platform)
    sender, receiver = _channel(platform)

    def tx():
        yield sender.send(0, payload=("once",), length=8)

    platform.pe(0).run(tx(), "tx")
    platform.sim.run()
    assert sender.retransmits >= 1
    assert receiver.ringbuffer(1).duplicates >= 1
    # Delivered exactly once despite the retransmit.
    assert receiver.fetch_message(1) is not None
    assert receiver.fetch_message(1) is None


def test_duplicate_reply_cannot_double_refill_credits(platform):
    # Lose the reply's ack: the replier retransmits the reply, and the
    # duplicate must not refill the original sender's credits twice.
    FaultPlan(seed=1).drop(1.0, kinds=("msg_ack",), destination=1,
                           window=(0, 200)).install(platform)
    sender, receiver = _channel(platform, credits=4)
    sender.configure_local(
        "configure",
        2,
        EndpointRegisters.receive_config(buffer_addr=0, slot_size=128,
                                         slot_count=4),
    )

    def tx():
        yield sender.send(0, payload=("ping",), length=8, reply_ep=2)

    platform.pe(0).run(tx(), "tx")

    def rx():
        slot, _message = yield from receiver.wait_message(1)
        yield receiver.reply(1, slot, payload=("pong",), length=8)

    platform.pe(1).run(rx(), "rx")
    platform.sim.run()
    assert receiver.retransmits >= 1  # the reply was re-sent
    # One send spent one credit; exactly one refill came back.
    assert sender.eps[0].credits == 4


def test_give_up_reconciles_credit_and_fails_transfer(platform):
    FaultPlan(seed=1).drop(1.0, kinds=("message",)).install(platform)
    sender, _receiver = _channel(platform, credits=2)

    def tx():
        with pytest.raises(TransferTimeout):
            yield sender.send(0, payload=("doomed",), length=8)
        return sender.eps[0].credits

    proc = platform.pe(0).run(tx(), "tx")
    platform.sim.run()
    assert proc.done.ok
    # The credit spent on the doomed send was refunded.
    assert proc.done.value == 2
    assert sender.retransmits == params.DTU_RETX_MAX


def test_memory_transaction_survives_lost_response(platform):
    FaultPlan(seed=1).drop(1.0, kinds=("mem_resp",),
                           window=(0, 30)).install(platform)
    requester = platform.pe(0).dtu
    target = platform.pe(1)
    target.spm_data.write(0, b"payload-bytes")
    configure_memory_ep(requester, 2, target.node, 0, 4096)

    def reader():
        data = yield from requester.read_memory(2, 0, 13)
        return data

    proc = platform.pe(0).run(reader(), "reader")
    platform.sim.run()
    assert proc.done.ok
    assert proc.done.value == b"payload-bytes"
    assert requester.retransmits >= 1


def test_retx_timer_after_sender_wiped_is_harmless(platform):
    """The sender's VPE dies right after a (lost) send and the kernel
    wipes its DTU: the armed retransmit timer still fires, finds no
    entry, and must neither crash nor retransmit on behalf of the dead
    node."""
    FaultPlan(seed=1).drop(1.0, kinds=("message",)).install(platform)
    sender, receiver = _channel(platform)

    def tx():
        # Fire-and-forget: the wipe below kills this VPE's node, so
        # nobody is left to observe the completion event.
        sender.send(0, payload=("orphaned",), length=8)
        return ()
        yield  # pragma: no cover

    platform.pe(0).run(tx(), "tx")
    # Kernel-style quarantine before the first retransmit timer fires.
    platform.sim.schedule(
        params.DTU_RETX_TIMEOUT_CYCLES // 2,
        lambda _: sender._apply_config("wipe", ()),
    )
    platform.sim.run()
    assert sender.retransmits == 0
    assert sender.idle
    assert receiver.fetch_message(1) is None


def test_ack_arriving_after_quarantine_is_ignored(platform):
    """The message is delivered, but its ack is delayed past the point
    where the kernel quarantines (wipes) the sender: the late ack finds
    no retransmit entry and is dropped without side effects."""
    FaultPlan(seed=1).delay(1.0, cycles=(2_000, 2_000),
                            kinds=("msg_ack",)).install(platform)
    sender, receiver = _channel(platform)

    def tx():
        sender.send(0, payload=("late-ack",), length=8)
        return ()
        yield  # pragma: no cover

    platform.pe(0).run(tx(), "tx")
    platform.sim.schedule(1_000, lambda _: sender._apply_config("wipe", ()))
    platform.sim.run()
    assert platform.sim.now >= 2_000  # the delayed ack did arrive
    assert sender.idle
    assert all(ep.kind.name == "INVALID" for ep in sender.eps)
    # Delivery itself happened exactly once, before the quarantine.
    assert receiver.fetch_message(1) is not None
    assert receiver.fetch_message(1) is None


def test_retransmit_schedule_is_seed_deterministic():
    """Same seed, same lossy run: the retransmit/backoff schedule, the
    fault schedule, and the final cycle count are all bit-identical —
    and the seed actually matters."""

    def lossy_run(seed):
        platform = build_platform(reliable=True)
        plan = FaultPlan(seed).drop(0.4, kinds=("message",))
        plan.install(platform)
        sender, receiver = platform.pe(0).dtu, platform.pe(1).dtu
        configure_channel(sender, receiver, credits=12, slot_count=16)

        def tx():
            for i in range(10):
                yield sender.send(0, payload=("msg", i), length=16)

        platform.pe(0).run(tx(), "tx")
        platform.sim.run()
        received = []
        while True:
            fetched = receiver.fetch_message(1)
            if fetched is None:
                break
            received.append(fetched[1].payload)
        return (sender.retransmits, received,
                [(r.cycle, r.action) for r in plan.events],
                platform.sim.now)

    assert lossy_run(11) == lossy_run(11)
    assert lossy_run(11) != lossy_run(12)


def test_wait_message_timeout_raises(platform):
    _sender, receiver = _channel(platform)

    def rx():
        with pytest.raises(TransferTimeout):
            yield from receiver.wait_message(1, timeout=500)
        return platform.sim.now

    proc = platform.pe(1).run(rx(), "rx")
    platform.sim.run()
    assert proc.done.ok
    assert proc.done.value >= 500
    # The expired wait deregistered itself from the endpoint's signal.
    assert receiver.signal(1).waiting == 0


def test_satisfied_wait_message_leaves_no_timer_behind():
    """Regression: a wait that a message satisfies used to leave its
    timeout timer live, so the run drained at the timeout's cycle — a
    dead timer dragging the clock — instead of when the work was done.
    (Best-effort DTUs: a reliable send's own retransmit timer is left
    to fire by design.)"""
    platform = build_platform()
    sender, receiver = _channel(platform)

    def rx():
        yield from receiver.wait_message(1, timeout=10_000)
        yield 1  # the sender's completion fires in the delivery's cycle
        return platform.sim.pending_events

    def tx():
        yield 50
        yield sender.send(0, payload=("in time",), length=8)

    proc = platform.pe(1).run(rx(), "rx")
    platform.pe(0).run(tx(), "tx")
    platform.sim.run()
    assert proc.done.value == 0  # nothing queued once it is delivered
    assert platform.sim.now < 1_000


def test_wipe_clears_endpoints_and_retx_state(platform):
    FaultPlan(seed=1).drop(1.0, kinds=("message",)).install(platform)
    sender, receiver = _channel(platform)
    sender.send(0, payload=("in flight",), length=8)
    platform.sim.run(until=params.DTU_RETX_TIMEOUT_CYCLES // 2)
    assert not sender.idle  # awaiting its ack
    assert sender._apply_config("wipe", ()) == "ok"
    assert sender.idle
    assert receiver.eps[1].kind.name == "RECEIVE"
    assert receiver._apply_config("wipe", ()) == "ok"
    assert all(ep.kind.name == "INVALID" for ep in receiver.eps)
    assert receiver._ringbufs == {}


def test_wipe_between_issue_and_injection_is_harmless(platform):
    """A request issued in the cycles before its DTU is wiped still
    leaves after the injection delay and is re-issued, but nobody waits
    for it any more: giving up on it must find that out quietly."""
    FaultPlan(seed=1).drop(1.0, kinds=("mem_read",)).install(platform)
    requester = platform.pe(0).dtu
    configure_memory_ep(requester, 2, platform.pe(1).node, 0, 4096)
    platform.pe(0).run(requester.read_memory(2, 0, 8), "reader")
    platform.sim.schedule(params.DTU_INJECT_CYCLES // 2,
                          lambda _: requester._apply_config("wipe", ()))
    platform.sim.run()
    assert requester.retransmits == params.DTU_RETX_MAX
    assert requester.idle
    assert platform.sim.pending_events == 0


def test_unreliable_default_has_no_seq_no_acks():
    platform = build_platform()
    sender, receiver = platform.pe(0).dtu, platform.pe(1).dtu
    configure_channel(sender, receiver)

    def tx():
        yield sender.send(0, payload=("plain",), length=8)

    platform.pe(0).run(tx(), "tx")
    platform.sim.run()
    slot_msg = receiver.fetch_message(1)
    assert slot_msg[1].header.seq == -1
    assert receiver.acks_sent == 0
    assert sender.idle
