"""Critical-path benchmark: causal tracing over real request paths.

Acceptance checks for the causal tracer:
- the profiled null syscall attributes >= 95% of its end-to-end
  cycles to named components (the partition is exact, so 100%),
- the cross-domain ``open_session`` at two kernel domains shows
  inter-kernel RPC hops on its critical path,
- the rendered report is the committed ``results/critical_path.txt``.
"""

from repro.eval import critical_path
from repro.obs import causal

from benchmarks.conftest import assert_committed


def test_critical_path():
    results = critical_path.run()

    syscall = results["syscall"]
    segments = causal.critical_path(syscall)
    breakdown = causal.component_breakdown(segments)
    assert sum(s.cycles for s in segments) == syscall.total_cycles
    assert critical_path.named_cycles(breakdown) >= 0.95 * syscall.total_cycles
    assert breakdown["kernel"] > 0 and breakdown["libm3"] > 0
    assert breakdown["dtu-transfer"] > 0 and breakdown["noc-transfer"] > 0

    remote = results["open_session (k=2)"]
    remote_breakdown = causal.component_breakdown(
        causal.critical_path(remote)
    )
    # The request crossed kernel domains: inter-kernel RPC hops are on
    # the critical path, plus the service's own handler.
    assert remote_breakdown["inter-kernel"] > 0
    assert remote_breakdown["service"] > 0

    assert_committed("critical_path", critical_path.render(results))
