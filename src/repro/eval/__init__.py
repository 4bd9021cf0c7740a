"""The evaluation harness: one module per paper figure/table.

Every eval module exposes an ``EVAL`` record
(:class:`~repro.eval.common.Eval`): its points, how to run one, how to
fold the outcomes into structured results, and how to render those into
files under ``results/``.
:mod:`repro.eval.runall` lists the records; its ``evaluate`` is the one
way to run them and ``run_all`` the one writer of that directory, and
``python -m repro.eval NAME`` prints a report.  ``benchmarks/claims.py``
asserts the paper's qualitative claims (who wins, by roughly what
factor, where the crossovers fall) on the same results.
"""

from repro.eval.report import render_table

__all__ = ["render_table"]
