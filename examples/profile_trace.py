"""Profiling a run: latency histograms and a Chrome trace.

Run with:  python examples/profile_trace.py

Passing ``observe=True`` to :class:`M3System` installs an Observer on
the simulator; every layer (NoC, DTU, kernel, m3fs) then records spans,
counters, and log2-bucket latency histograms as it works.  This example
runs the profile microbenchmark (null syscalls + a buffered file read),
prints the report, and exports the span timeline as a Chrome
trace-event file that loads in Perfetto or chrome://tracing.
"""

import os
import tempfile

from repro.eval import profile
from repro.obs import export_chrome_trace


def main():
    system = profile.run()
    print(profile.render(system))
    print()

    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "run.trace.json")
        trace = export_chrome_trace(system.sim.obs, path)
        events = trace["traceEvents"]
        spans = sum(1 for e in events if e["ph"] == "X")
        instants = sum(1 for e in events if e["ph"] == "i")
        print(f"Chrome trace: {spans} spans, {instants} instants, "
              f"{os.path.getsize(path):,} bytes written to run.trace.json")


if __name__ == "__main__":
    main()
