"""Wall-clock performance harness for the simulator itself.

Unlike ``benchmarks/`` (which asserts *simulated* results against the
paper), this package measures how fast the simulator runs on the host:
per-eval wall time for the evaluation suite, and the bare-engine ring
rate hostperf's ``micro.sim_events`` reports.  ``harness.py`` writes
and checks the committed ``BENCH_perf.json`` baseline at the repo root.
"""
