"""Property tests for the credit system: randomized send/reply traffic."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dtu import MissingCredits
from repro.dtu.dtu import TransferTimeout
from repro.faults import FaultPlan
from repro.hw import Platform
from tests.dtu.conftest import configure_channel


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    schedule=st.lists(st.sampled_from(["send", "serve"]), min_size=1,
                      max_size=60),
    credits=st.integers(min_value=1, max_value=6),
    slots=st.integers(min_value=1, max_value=8),
    lossy_seed=st.none() | st.integers(min_value=0, max_value=2**16),
)
def test_credits_bound_inflight_messages(schedule, credits, slots,
                                         lossy_seed):
    """However traffic interleaves — best-effort on a clean NoC, or
    (``lossy_seed``) reliable on one that loses and corrupts packets:

    - the sender can never have more unreplied messages than credits,
    - with credits <= slots nothing is ever dropped,
    - every message eventually served is answered exactly once,
    - and nothing is left in flight once the queue has drained.
    """
    platform = Platform.build(pe_count=2, mesh_width=3, mesh_height=2)
    sender, receiver = platform.pe(0).dtu, platform.pe(1).dtu
    if lossy_seed is not None:
        sender.enable_reliability()
        receiver.enable_reliability()
        FaultPlan(lossy_seed).drop(0.04).corrupt(0.02).install(platform)
    configure_channel(sender, receiver, send_ep=0, recv_ep=1,
                      credits=credits, slot_count=slots)
    configure_channel(receiver, sender, send_ep=5, recv_ep=2,
                      slot_count=8, credits=8)

    state = {"sent": 0, "denied": 0, "served": 0}

    def driver():
        for action in schedule:
            if action == "send":
                try:
                    yield sender.send(0, state["sent"], 8, reply_ep=2)
                    state["sent"] += 1
                except MissingCredits:
                    state["denied"] += 1
                    # invariant: denial only at zero credits
                    assert sender.ep(0).credits == 0
            else:
                fetched = receiver.fetch_message(1)
                if fetched is None:
                    yield 50  # let in-flight messages land
                    fetched = receiver.fetch_message(1)
                if fetched is not None:
                    slot, message = fetched
                    yield receiver.reply(1, slot, message.payload, 8)
                    state["served"] += 1
            # global invariant: in-flight (sent - served) <= credits
            assert state["sent"] - state["served"] <= credits
            assert 0 <= sender.ep(0).credits <= credits

    try:
        platform.sim.run_process(driver())
    except TransferTimeout:
        # One transfer lost all seven copies (once in ~10^7 under this
        # plan): the DTU gave up on it, and then what the sender has
        # been told and what the receiver got may differ by design.
        return
    platform.sim.run()
    # the lossy NoC loses packets, never the message: that is the point
    if lossy_seed is None:
        dropped = receiver.messages_dropped
    else:
        dropped = receiver.ringbuffer(1).dropped
    # with credits <= slots nothing may be dropped
    if credits <= slots:
        assert dropped == 0
    # conservation: all credits return once everything is served and
    # the replies arrived
    if state["sent"] == state["served"]:
        assert sender.ep(0).credits == credits
    # quiescence: every transfer was settled, every timer has fired
    for dtu in (sender, receiver):
        assert dtu.idle
    assert platform.sim.pending_events == 0


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=8192), min_size=1,
                   max_size=20)
)
def test_noc_delivery_times_are_causal(sizes):
    """Packets injected in order on the same path arrive in order, and
    no packet arrives before its serialization time."""
    from repro.noc import MeshTopology, Network, Packet
    from repro.sim import Simulator

    sim = Simulator()
    net = Network(sim, MeshTopology(4, 4))
    net.attach(3, lambda p: None)
    completions = []
    for size in sizes:
        completions.append(net.send(Packet(0, 3, "mem_write", size)))
    assert completions == sorted(completions)
    for size, when in zip(sizes, completions):
        assert when >= size / net.bytes_per_cycle
