"""Every registry eval: its claims (``claims.py``), then its report
against the committed bytes.  Those came out of another process
(``runall`` is the only writer of ``results/``), so the byte check is
also the determinism check: same seeds, same bytes.
"""

import copy
import functools

import pytest

from benchmarks.claims import CLAIMS, fig3_syscalls_and_file_ops
from repro.eval import runall


@functools.cache
def _evaluate(name: str) -> dict:
    return runall.evaluate(select=[name])


def test_every_eval_has_an_entry():
    assert list(CLAIMS) == list(runall.BY_NAME)


@pytest.mark.parametrize("name", list(runall.BY_NAME))
def test_claims_then_committed_bytes(name):
    results = _evaluate(name)
    if CLAIMS[name] is not None:
        CLAIMS[name](results[name])
    for filename, contents in runall.render(results).items():
        committed = (runall.RESULTS_DIR / filename).read_text()
        assert contents == committed, f"results/{filename} drifted"


def test_a_claim_fails_on_results_that_break_it():
    """Swapping M3's and Linux's read totals must break Figure 3's
    claim on the results alone, with no byte check involved."""
    results = copy.deepcopy(_evaluate("fig3_micro")["fig3_micro"])
    read = results["read"]
    read["M3"]["total"], read["Lx"]["total"] = (
        read["Lx"]["total"], read["M3"]["total"])
    with pytest.raises(AssertionError):
        fig3_syscalls_and_file_ops(results)
