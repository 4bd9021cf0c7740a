"""The fault-injection framework: seeded rules, determinism, recording."""

import pytest

from repro.faults import FaultPlan
from repro.hw import Platform
from repro.noc.packet import Packet
from tests.dtu.conftest import configure_channel


@pytest.fixture
def platform():
    return Platform.build(pe_count=4, mesh_width=3, mesh_height=2)


def _run_message(platform, count=1):
    """Send ``count`` messages PE0 -> PE1; return the receiver's DTU."""
    sender, receiver = platform.pe(0).dtu, platform.pe(1).dtu
    configure_channel(sender, receiver, credits=count + 1, slot_count=8)

    def tx():
        for i in range(count):
            yield sender.send(0, payload=("msg", i), length=16)

    platform.pe(0).run(tx(), "tx")
    platform.sim.run()
    return receiver


def test_drop_all_loses_every_message(platform):
    plan = FaultPlan(seed=1).drop(1.0, kinds=("message",))
    plan.install(platform)
    receiver = _run_message(platform, count=3)
    assert receiver.fetch_message(1) is None
    assert platform.network.packets_lost == 3
    assert len(plan.events) == 3
    assert all(record.action == "drop" for record in plan.events)


def test_drop_rate_zero_never_fires(platform):
    FaultPlan(seed=1).drop(0.0).install(platform)
    receiver = _run_message(platform, count=3)
    assert platform.network.packets_lost == 0
    assert receiver.fetch_message(1) is not None


def test_filters_compose_source_destination_kind(platform):
    plan = (
        FaultPlan(seed=1)
        .drop(1.0, kinds=("message",), source=3)  # wrong source: no match
        .drop(1.0, kinds=("mem_read",))  # wrong kind: no match
    )
    plan.install(platform)
    receiver = _run_message(platform)
    assert receiver.fetch_message(1) is not None
    assert plan.events == []


def test_window_arms_and_disarms_rule(platform):
    FaultPlan(seed=1).drop(1.0, window=(10_000, 20_000)).install(platform)
    receiver = _run_message(platform)  # runs at cycle ~0: outside window
    assert receiver.fetch_message(1) is not None
    assert platform.network.packets_lost == 0


def test_same_seed_same_fault_schedule():
    def injected(seed):
        platform = Platform.build(pe_count=4, mesh_width=3, mesh_height=2)
        plan = FaultPlan(seed).drop(0.3, kinds=("message",))
        plan.install(platform)
        _run_message(platform, count=20)
        # detail embeds the globally-unique packet id; the schedule
        # itself is (cycle, action).
        return [(r.cycle, r.action) for r in plan.events]

    assert injected(7) == injected(7)
    assert injected(7) != injected(8)  # and the seed actually matters


def test_kill_pe_halts_core_but_not_dtu(platform):
    plan = FaultPlan(seed=1).kill_pe(node=1, at=100)
    plan.install(platform)
    pe = platform.pe(1)
    beats = []

    def victim():
        while True:
            yield 30
            beats.append(platform.sim.now)

    pe.run(victim(), "victim")
    platform.sim.run(until=1_000)
    assert pe.failed
    assert not pe.core_alive()
    assert all(beat <= 100 + 30 for beat in beats)
    # The DTU survives and still answers privileged probes.
    assert pe.dtu._apply_config("probe", ()) == "halted"
    assert any(record.action == "kill" for record in plan.events)


def test_double_install_rejected(platform):
    FaultPlan(seed=1).install(platform)
    with pytest.raises(RuntimeError):
        FaultPlan(seed=2).install(platform)


def test_install_on_bare_network(platform):
    plan = FaultPlan(seed=1).drop(1.0)
    plan.install(platform.network)
    _run_message(platform)
    assert platform.network.packets_lost >= 1


def test_kill_on_bare_network_rejected_before_installing(platform):
    with pytest.raises(ValueError, match="need a Platform"):
        FaultPlan(seed=1).kill_pe(node=1, at=10).install(platform.network)
    assert platform.network.fault_plan is None


def test_kill_on_bare_network_rejected(platform):
    with pytest.raises(ValueError):
        FaultPlan(seed=1).kill_pe(node=1, at=10).install(platform.network)


def test_unknown_packet_kind_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown packet kind"):
        FaultPlan(seed=1).drop(1.0, kinds=("mesage",))  # typo
    with pytest.raises(ValueError, match="valid kinds are"):
        FaultPlan(seed=1).drop(0.5, kinds=("message", "bogus"))


def test_bad_rates_windows_and_cycles_rejected():
    with pytest.raises(ValueError, match="probability"):
        FaultPlan(seed=1).drop(1.5)
    with pytest.raises(ValueError, match="window"):
        FaultPlan(seed=1).drop(1.0, window=(-10, 100))
    with pytest.raises(ValueError, match="window"):
        FaultPlan(seed=1).drop(1.0, window=(200, 100))
    with pytest.raises(ValueError, match="kill cycle"):
        FaultPlan(seed=1).kill_pe(node=1, at=-5)
    with pytest.raises(ValueError, match="source node"):
        FaultPlan(seed=1).drop(1.0, source=-1)
    with pytest.raises(ValueError, match="destination node"):
        FaultPlan(seed=1).drop(1.0, destination=-2)
    with pytest.raises(ValueError, match="link"):
        FaultPlan(seed=1).drop(1.0, link=(0, 1, 2))


def test_nonexistent_targets_rejected_at_install(platform):
    # The platform has 4 PE nodes (plus the DRAM node); node 99 exists
    # nowhere, and (0, 2) is not a mesh link (two hops apart).
    with pytest.raises(ValueError):
        FaultPlan(seed=1).kill_pe(node=99, at=10).install(platform)
    with pytest.raises(ValueError):
        FaultPlan(seed=1).drop(1.0, source=99).install(platform)
    with pytest.raises(ValueError):
        FaultPlan(seed=1).drop(1.0, destination=99).install(platform)
    with pytest.raises(ValueError):
        FaultPlan(seed=1).drop(1.0, link=(0, 2)).install(platform)
    # A failed install must not leave the plan half-attached: the
    # network stays plan-free and a valid plan can still be installed.
    assert platform.network.fault_plan is None
    FaultPlan(seed=1).drop(0.0).install(platform)


def test_no_plan_is_default_and_free(platform):
    assert platform.network.fault_plan is None
    receiver = _run_message(platform)
    assert receiver.fetch_message(1) is not None
    assert platform.network.packets_lost == 0
