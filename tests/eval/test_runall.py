"""The eval registry and its parallel runner: job list, merge, and
determinism."""

import multiprocessing
import pickle
import subprocess
import sys

import pytest

from repro.eval import fig6_multikernel, fig6_scale, runall, tab_arm
from repro.eval.__main__ import main as print_evals


def _committed(filename: str) -> str:
    return (runall.RESULTS_DIR / filename).read_text()


# -- the registry --------------------------------------------------------------


def test_registry_declares_exactly_the_committed_files():
    """An eval added without its bytes, or an orphaned result file,
    fails here — before CI regenerates anything."""
    declared = [name for entry in runall.EVALS for name in entry.files]
    assert len(declared) == len(set(declared))
    committed = {path.name for path in runall.RESULTS_DIR.iterdir()}
    assert set(declared) == committed


def test_registry_names_are_unique_and_jobs_pickle():
    names = [entry.name for entry in runall.EVALS]
    assert len(names) == len(set(names))
    for job in runall.build_jobs():
        assert pickle.loads(pickle.dumps(job)) == job


def test_build_jobs_is_deterministic_and_complete():
    jobs = runall.build_jobs()
    assert jobs == runall.build_jobs()  # fixed order, every call
    assert jobs == [(entry.name, point)
                    for entry in runall.EVALS for point in entry.points]
    assert {name for name, _point in jobs} == set(runall.BY_NAME)
    points = [point for name, point in jobs if name == "fig6_scale"]
    assert len(points) == (
        len(fig6_scale.BENCHMARKS) * len(fig6_scale.INSTANCE_COUNTS)
    )
    assert points[0][1] == max(fig6_scale.INSTANCE_COUNTS)  # heavy first
    mk_points = [point for name, point in jobs
                 if name == "fig6_multikernel"]
    assert len(mk_points) == (
        len(fig6_multikernel.BENCHMARKS) * len(fig6_multikernel.KERNEL_COUNTS)
    )


def test_build_jobs_select_filters_by_output_name():
    jobs = runall.build_jobs(select=["tab_arm", "abl_cache"])
    assert jobs == [("abl_cache", None), ("tab_arm", None)]
    for name in ("fig6_scale", "fig6_multikernel", "traffic"):
        assert runall.build_jobs(select=[name]) == [
            job for job in runall.build_jobs() if job[0] == name
        ]


def test_unknown_eval_name_exits_2_before_anything_runs(tmp_path, capsys):
    """A mistyped --select used to run nothing, write nothing, exit 0."""
    target = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        runall.main(["--select", "fig6", "--results-dir", str(target)])
    assert exit_info.value.code == 2
    message = capsys.readouterr().err
    assert "unknown eval fig6" in message
    assert all(name in message for name in runall.BY_NAME)
    assert not target.exists()

    assert print_evals(["tab_arm", "typo"]) == 2
    captured = capsys.readouterr()
    assert "unknown eval typo" in captured.err and "fig6_scale" in captured.err
    assert captured.out == ""


# -- the merge -----------------------------------------------------------------


def test_fold_normalises_against_smallest_count():
    averages = {(benchmark, count): 100.0 * count
                for benchmark, count in fig6_scale.POINTS}
    results = fig6_scale.fold(averages)
    assert list(results) == fig6_scale.BENCHMARKS
    for series in results.values():
        counts = [count for count, _avg, _norm in series]
        assert counts == sorted(fig6_scale.INSTANCE_COUNTS)
        assert series[0][2] == 1.0  # baseline normalises to itself
        assert series[-1][2] == pytest.approx(
            max(counts) / min(counts)
        )


def test_merge_order_independent_of_point_completion_order():
    jobs = runall.build_jobs(select=["fig6_scale", "fig6_multikernel"])
    outcomes = [float(index * 37 % 11 + 1) for index in range(len(jobs))]
    files = runall._collect(jobs, outcomes)
    assert set(files) == {"fig6_scale.txt", "fig6_multikernel.txt"}
    assert runall._collect(jobs[::-1], outcomes[::-1]) == files


# -- running -------------------------------------------------------------------


def test_serial_run_matches_direct_eval(tmp_path):
    files = runall.run_all(jobs=1, select=["tab_arm"], results_dir=tmp_path)
    expected = tab_arm.render(tab_arm.run()) + "\n"
    assert files == {"tab_arm.txt": expected}
    assert (tmp_path / "tab_arm.txt").read_text() == expected


def test_results_dir_is_created_with_parents_before_running(tmp_path):
    """A nested --results-dir used to fail only after every job had
    finished."""
    target = tmp_path / "a" / "b"
    files = runall.run_all(jobs=1, select=["tab_arm"], results_dir=target)
    assert (target / "tab_arm.txt").read_text() == files["tab_arm.txt"]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork start method",
)
def test_pool_run_matches_serial_run(tmp_path):
    """One multi-point eval and one single-simulation eval: the pool,
    the serial path and the committed bytes all agree."""
    select = ["fig6_multikernel", "tab_arm"]
    serial = runall.run_all(jobs=1, select=select,
                            results_dir=tmp_path / "serial")
    pooled = runall.run_all(jobs=2, select=select,
                            results_dir=tmp_path / "pooled")
    assert serial == pooled
    assert set(serial) == {"fig6_multikernel.txt", "tab_arm.txt"}
    for filename, contents in serial.items():
        assert contents == _committed(filename)


def test_module_cli_prints_the_committed_report():
    """``python -m repro.eval NAME`` in a fresh process: the committed
    bytes on stdout, nothing else."""
    done = subprocess.run(
        [sys.executable, "-m", "repro.eval", "tab_arm"],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout == _committed("tab_arm.txt")
