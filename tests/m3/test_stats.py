"""``M3System.stats()``: the one counter surface, and what it promises."""

import pathlib
import re

import pytest

from repro.dtu.dtu import DTU
from repro.eval import traffic as traffic_eval
from repro.eval.common import DEFAULT_SEED
from repro.faults import FaultPlan
from repro.hw.spm import Scratchpad
from repro.m3.system import stat_sum
from repro.noc.network import Network
from repro.noc.topology import MeshTopology
from repro.sim import Simulator
from repro.workloads import traffic

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _faulted_reference_point():
    """The traffic eval's faulted point: every kind of key is there."""
    plan = FaultPlan(DEFAULT_SEED).drop(traffic_eval.FAULT_DROP_RATE,
                                        window=traffic_eval.FAULT_WINDOW)
    return traffic.run_profile(
        traffic_eval._curve_profile(traffic_eval.REFERENCE_GAP,
                                    name="faulted"),
        fault_plan=plan,
    ).system


@pytest.fixture(scope="module")
def faulted():
    return _faulted_reference_point()


def _documented_keys() -> set:
    """The list in docs/observability.md, "Counters"."""
    text = (ROOT / "docs" / "observability.md").read_text()
    section = text.split("\n## Counters\n", 1)[1]
    block = section.split("```\n", 2)[1]
    return set(block.split())


def _placeholders(system, key: str) -> str:
    """``key`` with its node, domain and service names replaced."""
    parts = key.split(".")
    if parts[0] == "dtu":
        parts[1] = "<node>"
    elif parts[0] == "kernel":
        parts[1] = "<d>"
        if parts[2] == "router":
            parts[3] = "<service>"
    elif parts[0] == "net" and len(parts) > 2:
        parts[1] = "<service>"
    elif parts[0] in system.servers:
        parts[0] = "<service>"
    return ".".join(parts)


def test_key_set_is_the_documented_one(faulted):
    keys = {_placeholders(faulted, key) for key in faulted.stats()}
    assert keys == _documented_keys()


def test_stats_are_sorted_flat_ints(faulted):
    stats = faulted.stats()
    assert list(stats) == sorted(stats)
    assert all(type(value) is int for value in stats.values())


def test_two_identical_runs_give_equal_stats(faulted):
    assert _faulted_reference_point().stats() == faulted.stats()


def test_pe_and_nic_dtus_are_counted_apart(faulted):
    """``results/traffic.txt``'s "DTU retransmits" is the PEs' sum; the
    two NICs' DTUs retransmitted more, under ``net.<service>.nic``."""
    stats = faulted.stats()
    committed = (ROOT / "results" / "traffic.txt").read_text()
    printed = int(re.search(r"([\d,]+) DTU retransmits", committed)
                  .group(1).replace(",", ""))
    assert stat_sum(stats, "dtu", "retransmits") == printed == 153
    assert stats["net.net.nic.retransmits"] == 27
    assert stats["net.net2.nic.retransmits"] == 42
    assert stat_sum(stats, "net", "retransmits") == 27 + 42


def test_bare_components_report_without_a_system():
    sim = Simulator()
    network = Network(sim, MeshTopology(2, 1))
    dtu = DTU(sim, network, 0, Scratchpad(4096))
    assert network.stats() == {"packets_lost": 0}
    assert dtu.stats() == {"retransmits": 0, "duplicates": 0}
