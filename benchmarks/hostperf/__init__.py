"""The repo benchmark: host-side performance of the booted simulator.

``BENCHMARK.json`` at the repo root names this package's entry point,
workloads and metrics.  ``benchmarks/perf/harness.py`` (the per-figure
``BENCH_perf.json`` gate) is older and unchanged; see ``README.md``
here for how the two relate.
"""
