"""Trace generation and replay on both OS models."""

import pytest

from repro import params
from repro.linuxsim.machine import LinuxMachine
from repro.m3.system import M3System
from repro.workloads.data import tar_source_files
from repro.workloads.trace import LinuxReplayer, M3Replayer
from repro.workloads.tracegen import (
    TRACE_BENCHMARKS,
    make_find_trace,
    make_sqlite_trace,
    make_tar_trace,
    make_untar_trace,
)


def _replay_on_linux(setup_files, trace):
    machine = LinuxMachine()
    machine.preload(setup_files)

    def program(lx):
        yield from LinuxReplayer(lx).replay(trace)
        return lx.sim.now

    machine.run_program(program)
    return machine


def _replay_on_m3(setup_files, trace):
    system = M3System(pe_count=5).boot()
    if setup_files:
        system.fs_preload(setup_files)

    def app(env):
        yield from M3Replayer(env).replay(trace)
        return env.sim.now

    system.run_app(app)
    return system


def test_untar_extracts_all_members_on_linux():
    setup, trace = make_untar_trace()
    machine = _replay_on_linux(setup, trace)
    for path, content in tar_source_files().items():
        name = path.rsplit("/", 1)[-1]
        node = machine.fs.lookup(f"/out/{name}")
        assert len(node.data) == len(content)


def test_untar_extracts_all_members_on_m3():
    setup, trace = make_untar_trace()
    system = _replay_on_m3(setup, trace)
    fs = system.fs_server.fs
    for path, content in tar_source_files().items():
        name = path.rsplit("/", 1)[-1]
        assert fs.stat(f"/out/{name}")[1] == len(content)


def test_untar_round_trips_member_bytes_on_m3():
    """Not just sizes: the extracted bytes equal the archive members."""
    setup, trace = make_untar_trace()
    system = _replay_on_m3(setup, trace)
    first_path, first_content = next(iter(tar_source_files().items()))
    name = first_path.rsplit("/", 1)[-1]
    assert system.fs_read_back(f"/out/{name}") == first_content


def test_tar_produces_archive_of_expected_size():
    setup, trace = make_tar_trace()
    machine = _replay_on_linux(setup, trace)
    from repro.workloads.data import tar_archive_bytes

    archive = machine.fs.lookup("/arch.tar")
    assert len(archive.data) == len(tar_archive_bytes())


def test_find_trace_touches_all_items():
    _setup, trace = make_find_trace()
    stats = [op for op in trace if op.op == "stat"]
    readdirs = [op for op in trace if op.op == "readdir"]
    assert len(stats) == 41  # /tree + 4 dirs + 36 files
    assert len(readdirs) == 5


def test_sqlite_trace_matches_paper_shape():
    _setup, trace = make_sqlite_trace()
    opens = [op for op in trace if op.op == "open"]
    waits = [op for op in trace if op.op == "wait"]
    assert len(opens) == 1 + params.SQLITE_INSERTS  # db + one journal each
    # create + 8 inserts + select
    assert len(waits) == 2 + params.SQLITE_INSERTS
    total_compute = sum(op.args[0] for op in waits)
    assert total_compute == (
        params.SQLITE_CREATE_CYCLES
        + params.SQLITE_INSERTS * params.SQLITE_INSERT_CYCLES
        + params.SQLITE_SELECT_CYCLES
    )


def test_prefix_rewrites_all_paths():
    for name, maker in TRACE_BENCHMARKS.items():
        setup, trace = maker("/p7")
        for path in setup:
            assert path.startswith("/p7/"), (name, path)
        for op in trace:
            if op.op in ("open", "stat", "mkdir", "unlink", "readdir"):
                assert op.args[0].startswith("/p7"), (name, op)


def test_both_replayers_execute_identical_op_sequences():
    """The same trace costs the same *App* cycles on both systems —
    the paper's equal-computation assumption."""
    setup, trace = make_sqlite_trace()

    machine = _replay_on_linux(setup, trace)
    lx_app = machine.sim.ledger.snapshot().get("app", 0)

    system = _replay_on_m3(setup, trace)
    m3_app = system.sim.ledger.snapshot().get("app", 0)
    assert lx_app == m3_app > 0


def test_replayer_rejects_unknown_op():
    from repro.workloads.trace import TraceOp

    bogus = [TraceOp("teleport", ("x",))]
    machine = LinuxMachine()

    def program(lx):
        yield from LinuxReplayer(lx).replay(bogus)

    with pytest.raises(ValueError, match="unknown trace op"):
        machine.run_program(program)


def test_cat_tr_writes_the_translated_file():
    from repro.m3.system import M3System
    from repro.workloads.cat_tr import (
        INPUT_PATH,
        OUTPUT_PATH,
        input_bytes,
        m3_cat_tr,
    )

    system = M3System(pe_count=6).boot()
    system.fs_preload({INPUT_PATH: input_bytes()})
    wall, _ledger = system.run_app(m3_cat_tr, name="cat+tr")
    assert wall > 0
    assert system.fs_read_back(OUTPUT_PATH) == input_bytes().replace(b"a", b"b")
