"""Critical-path report: where a traced request's cycles go.

Two scenarios, both driven through the causal tracer
(:mod:`repro.obs.causal`):

- **syscall** — the Figure-3 null system call (warm), traced end to
  end: libm3 marshalling, the DTU message span, NoC transfer, the
  kernel's handler, and the reply path.
- **open_session (k=2)** — the ``fig6_multikernel`` setup at two
  kernel domains: a client in domain 1 opens a session with an m3fs
  instance living in domain 0, so the request crosses the inter-kernel
  protocol (``srv_open``) twice — visible as ``inter-kernel`` hops on
  the critical path.

For each scenario the report lists the critical-path segments (every
cycle of the root interval charged to the deepest covering span) and
the per-component totals.  The partition is exact, so the named
components always account for the full measured latency — the report
asserts the >= 95% floor anyway, as a regression tripwire.

Fully deterministic: fresh simulators, fixed seeds, pure functions of
the recorded spans; ``runall`` reproduces ``results/critical_path.txt``
byte-identically for any ``--jobs`` value.
"""

from __future__ import annotations

from repro.eval.common import single
from repro.eval.report import render_table
from repro.m3.kernel import syscalls
from repro.m3.lib.m3fs_client import M3fsClient
from repro.m3.system import M3System
from repro.obs import causal

#: warm-up iterations before the profiled null syscall (the last one
#: is the measured request, matching Figure 3's warm measurement).
SYSCALL_ITERATIONS = 4

#: the cross-domain scenario's mesh (a small fig6_multikernel layout).
CROSS_DOMAIN_PES = 8
KERNEL_DOMAINS = 2


def profile_noop_syscall() -> causal.Request:
    """The Figure-3 null syscall, traced; returns the warm request."""
    system = M3System(pe_count=4, observe=True).boot(with_fs=False)

    def app(env):
        for _ in range(SYSCALL_ITERATIONS):
            yield from env.syscall(syscalls.NOOP)

    system.run_app(app, name="syscall-bench")
    # find_request returns the *last* matching root: the warm iteration.
    return causal.find_request(system.sim.obs, syscalls.NOOP)


def profile_cross_domain_open() -> causal.Request:
    """An ``open_session`` that crosses two kernel domains.

    The m3fs instance registers with kernel 0; the client VPE runs in
    domain 1, so its kernel satisfies the syscall by forwarding a
    ``srv_open`` over the inter-kernel channel (docs/protocols.md).
    """
    system = M3System(
        pe_count=CROSS_DOMAIN_PES, kernel_count=KERNEL_DOMAINS, observe=True
    ).boot(with_fs=False)
    system.start_m3fs(name="m3fs", domain=0)

    def app(env):
        yield from M3fsClient.connect(env, service="m3fs")
        return 0

    system.wait(system.spawn(app, name="remote-open", domain=1))
    return causal.find_request(system.sim.obs, syscalls.OPEN_SESSION)


def run() -> dict:
    """scenario label -> traced :class:`~repro.obs.causal.Request`."""
    return {
        "syscall": profile_noop_syscall(),
        "open_session (k=2)": profile_cross_domain_open(),
    }


# -- rendering ---------------------------------------------------------------


def named_cycles(breakdown: dict) -> int:
    """Cycles attributed to a named component (everything but other)."""
    return sum(c for component, c in breakdown.items()
               if component != "other")


def render(results: dict) -> str:
    """The ``results/critical_path.txt`` report for :func:`run`."""
    parts = []
    for label, request in results.items():
        segments = causal.critical_path(request)
        breakdown = causal.component_breakdown(segments)
        total = request.total_cycles
        named = named_cycles(breakdown)
        if named < 0.95 * total:
            raise AssertionError(
                f"{label}: only {named}/{total} cycles attributed to "
                "named components (floor: 95%)"
            )
        rows = [
            (segment.start - request.root.begin, segment.cycles,
             segment.component, segment.span.name, segment.span.category,
             segment.span.node)
            for segment in segments
        ]
        parts.append(render_table(
            f"Critical path: {label} — {total:,} cycles end-to-end",
            ["at", "cycles", "component", "span", "category", "node"],
            rows,
        ))
        summary = [
            (component, cycles, f"{100.0 * cycles / total:.1f}%")
            for component, cycles in sorted(
                breakdown.items(), key=lambda item: (-item[1], item[0])
            )
        ]
        summary.append(("(attributed)", named,
                        f"{100.0 * named / total:.1f}%"))
        parts.append(render_table(
            f"Component breakdown: {label}",
            ["component", "cycles", "share"],
            summary,
        ))
    return "\n\n".join(parts)


EVAL = single("critical_path", run, render)
