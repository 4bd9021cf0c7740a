"""The evaluation harness: one module per paper figure/table.

Every eval module exposes ``run()`` returning structured results,
``render()`` turning them into the paper-style report, and an ``EVAL``
record tying the two to a file under ``results/``;
:mod:`repro.eval.runall` lists the records and is the one writer of
that directory, ``python -m repro.eval NAME`` prints a report.  The
benchmark suite under ``benchmarks/`` asserts the paper's qualitative
claims (who wins, by roughly what factor, where the crossovers fall)
on the same results.
"""

from repro.eval.report import render_table

__all__ = ["render_table"]
