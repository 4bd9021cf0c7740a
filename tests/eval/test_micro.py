"""Fast sanity checks of the evaluation harness (full runs live in
``benchmarks/``)."""

import pytest

from repro import params
from repro.eval import fig3_micro, tab_arm


def test_m3_syscall_near_200_cycles():
    total, ledger = fig3_micro.m3_syscall_cycles()
    assert 150 <= total <= 260
    assert ledger.get("os", 0) >= 150  # the ~170 software cycles


def test_lx_syscall_exactly_410_and_320():
    assert fig3_micro.lx_syscall_cycles(False)[0] == 410
    assert tab_arm.syscall_cycles(params.LINUX_ARM) == 320


def test_arm_table_rows():
    rows = tab_arm.run()
    assert len(rows) == 3
    names = [row[0] for row in rows]
    assert any("syscall" in n for n in names)
    assert any("create" in n for n in names)
    assert any("copy" in n for n in names)


def test_copy_overhead_near_paper_value():
    """Section 5.2: ~3.2 M cycles overhead for copying 2 MiB."""
    overhead = tab_arm.copy_overhead(params.LINUX_XTENSA)
    assert overhead == pytest.approx(3.2e6, rel=0.15)


def test_fig4_read_faster_with_fewer_extents():
    from repro.eval import fig4_extents

    fragmented = fig4_extents.read_time(16)
    contiguous = fig4_extents.read_time(2048)
    assert fragmented > contiguous


# -- the shared programs (repro.workloads.micro) -----------------------------


@pytest.mark.parametrize("buffer", [1000, 4096, 64 * 1024])
def test_m3_read_returns_exactly_the_preloaded_bytes(buffer):
    from repro.m3.system import M3System
    from repro.workloads.data import deterministic_bytes
    from repro.workloads.micro import m3_read

    content = deterministic_bytes("micro-read", 40_000)
    system = M3System(pe_count=4).boot()
    system.fs_preload({"/in.dat": content})

    def app(env):
        return (yield from m3_read(env, "/in.dat", buffer))

    assert system.run_app(app) == content


@pytest.mark.parametrize("slots", [1, 4])
def test_m3_pipe_and_drain_deliver_every_round(slots):
    from repro.m3.system import M3System
    from repro.workloads.data import deterministic_bytes
    from repro.workloads.micro import m3_drain, m3_pipe
    from tests.m3.invariants import check_dtus_quiescent, check_kernel_tables

    payload, rounds = deterministic_bytes("micro-pipe", 1024), 6
    system = M3System(pe_count=4).boot(with_fs=False)

    def app(env):
        reader, vpe = yield from m3_pipe(env, payload, rounds * len(payload),
                                         slots)
        assert system.kernel.vpes[vpe.vpe_id].name == "writer"
        data = yield from m3_drain(reader, len(payload))
        yield from vpe.wait()
        return data

    assert system.run_app(app) == payload * rounds
    check_kernel_tables(system)
    check_dtus_quiescent(system)


@pytest.mark.parametrize("warm_cache", [False, True])
def test_lx_write_then_lx_read_round_trips(warm_cache):
    from repro.linuxsim.machine import LinuxMachine
    from repro.workloads.data import deterministic_bytes
    from repro.workloads.micro import lx_read, lx_write

    payload = deterministic_bytes("micro-lx", 4096)
    machine = LinuxMachine(warm_cache=warm_cache)

    def program(lx):
        yield from lx_write(lx, "/f", payload, 5 * len(payload))
        return (yield from lx_read(lx, "/f", 3000))

    assert machine.run_program(program) == payload * 5
