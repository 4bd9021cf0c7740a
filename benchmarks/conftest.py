"""Shared benchmark plumbing: the committed-bytes check."""

from repro.eval import runall


def assert_committed(name: str, report: str) -> None:
    """``report`` is ``results/<name>.txt``, byte for byte.

    The committed bytes came out of another process (``runall`` is the
    only writer of ``results/``), so this is also the determinism
    check: a fresh run with the same seeds renders identically.
    """
    committed = (runall.RESULTS_DIR / f"{name}.txt").read_text()
    assert report + "\n" == committed, f"results/{name}.txt drifted"
