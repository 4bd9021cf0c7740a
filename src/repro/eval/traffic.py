"""Serving traffic at scale: the throughput–latency evaluation.

The north star asks for a manycore that "serves heavy traffic"; this
eval drives the full serving stack — open-loop load generator, NIC
datagram path, gateway tier, session-routed replicated kv tier
(:mod:`repro.workloads.traffic`) — through three questions:

- **The curve.** An open-loop Poisson sweep across offered rates: the
  classic hockey stick, flat tails in the linear region, then queueing
  blow-up past saturation while goodput plateaus.  Tails are read from
  HDR-style log-linear histogram sub-buckets (precision 7, relative
  error < 1/128), so p999 resolves real stragglers instead of a 2x
  coarse bucket bound.
- **Arrival shape and faults.** At the reference rate, the same
  offered load arriving in bursts, and the same load ridden through a
  seeded mid-load packet-loss window (PR 1 fault plan + reliable DTU
  delivery): everything still completes; the damage shows up as
  retransmits and tail inflation.
- **The tail.** The slowest request of the observed reference run,
  attributed cycle by cycle with the causal tracer's critical path —
  the gateway-side share (gateway handling + routed kv RPC) split into
  paper components.

Fully deterministic: every number is a pure function of the profiles'
seeds; ``runall`` reproduces ``results/traffic.txt`` byte-identically
for any ``--jobs`` value.
"""

from __future__ import annotations

from repro.eval.common import DEFAULT_SEED, single, swept
from repro.eval.critical_path import attribute
from repro.eval.report import breakdown_rows, render_table
from repro.faults import FaultPlan
from repro.m3.system import stat_sum
from repro.obs import causal
from repro.workloads import traffic

#: Poisson sweep: mean inter-arrival gaps (cycles), heaviest last.
CURVE_GAPS = (9_000, 4_500, 3_000, 1_500, 900, 600)
#: the reference rate for the arrival-shape / fault / tail studies.
REFERENCE_GAP = 3_000
#: every eval point sends this many requests from this many clients.
REQUESTS = 600
CLIENTS = 480

#: mid-load packet-loss window for the faulted point (and the
#: autoscale and telemetry evals' faulted runs).
FAULT_DROP_RATE = 0.01
FAULT_WINDOW = (150_000, 900_000)


def _curve_profile(gap: int, **overrides) -> traffic.TrafficProfile:
    return traffic.TrafficProfile(
        name=overrides.pop("name", f"poisson/{gap}"),
        seed=DEFAULT_SEED, clients=CLIENTS, requests=REQUESTS,
        mean_gap=gap, **overrides,
    )


def loss_window_plan() -> FaultPlan:
    """A fresh plan of the faulted point's seeded loss window."""
    return FaultPlan(DEFAULT_SEED).drop(FAULT_DROP_RATE, window=FAULT_WINDOW)


def _summarize(result: traffic.TrafficResult) -> dict:
    """A pickleable summary of one load point (no simulator inside).
    Its DTU retransmits are the PEs' (a NIC's DTU counts apart, under
    ``net.<service>.nic``)."""
    stats = result.system.stats()
    histogram = result.histogram
    quantiles = {
        label: histogram.percentile(fraction) if histogram.count else 0
        for label, fraction in (
            ("p50", 0.50), ("p99", 0.99), ("p999", 0.999),
        )
    }
    return {
        "name": result.profile.name,
        "mean_gap": result.profile.mean_gap,
        "sent": result.sent,
        "completed": result.completed,
        "offered": result.offered_per_mcycle,
        "goodput": result.goodput_per_mcycle,
        **quantiles,
        "tx_retries": result.tx_retries + result.gw_tx_retries,
        "frames_dropped": stat_sum(stats, "net", "frames_dropped"),
        "kv_errors": result.kv_errors,
        "served_by": list(result.served_by),
        "route_counts": result.route_counts,
        "replica_requests": result.replica_requests,
        "noc_lost": stat_sum(stats, "noc", "packets_lost"),
        "retransmits": stat_sum(stats, "dtu", "retransmits"),
    }


def _attribute_tail(result: traffic.TrafficResult) -> dict:
    """Critical-path the slowest request of an *observed* run.

    The trace roots at the gateway (the datagram path itself carries no
    trace context), so the breakdown covers the gateway-side share of
    the latency: gateway handling plus the routed kv RPC.  The rest of
    the end-to-end number is queueing before the gateway picked the
    request up — reported as the residual.
    """
    req_id, latency = max(result.latencies.items(),
                          key=lambda item: (item[1], -item[0]))
    request = causal.find_request(
        result.system.sim.obs, f"req{req_id}", category="traffic"
    )
    return {"req_id": req_id, "latency": latency, **attribute(request)}


#: one simulation per point: the curve's gaps, then the two
#: reference-rate variations.
POINTS = CURVE_GAPS + ("bursty", "faulted")


def run_point(point) -> tuple:
    """(summary, tail attribution) of one load point.

    Only the curve's reference point runs observed, so only it has a
    tail attribution; it is computed here because the critical path
    needs the live observer, which does not pickle.
    """
    observed = point == REFERENCE_GAP
    if point == "bursty":
        result = traffic.run_profile(_curve_profile(
            REFERENCE_GAP, name="bursty", arrival="bursty",
        ))
    elif point == "faulted":
        result = traffic.run_profile(
            _curve_profile(REFERENCE_GAP, name="faulted"),
            fault_plan=loss_window_plan(),
        )
    else:
        result = traffic.run_profile(_curve_profile(point), observe=observed)
    return _summarize(result), _attribute_tail(result) if observed else None


def fold(outcomes: dict) -> dict:
    """Every load point plus the tail attribution, summarized."""
    return {
        "curve": [outcomes[gap][0] for gap in CURVE_GAPS],
        "bursty": outcomes["bursty"][0],
        "faulted": outcomes["faulted"][0],
        "tail": outcomes[REFERENCE_GAP][1],
    }


# -- rendering ----------------------------------------------------------------


#: the headers of :func:`latency_cells` after the point's name.
LATENCY_HEADERS = ["offered/Mcyc", "goodput/Mcyc", "done",
                   "p50", "p99", "p999"]
_HEADERS = ["point", *LATENCY_HEADERS, "tx retries", "dropped"]


def latency_cells(point: dict) -> tuple:
    """A :func:`_summarize` load point's name, rates, completions and
    latency quantiles: the first seven cells of its report row."""
    return (
        point["name"],
        f"{point['offered']:,.0f}",
        f"{point['goodput']:,.0f}",
        f"{point['completed']}/{point['sent']}",
        point["p50"],
        point["p99"],
        point["p999"],
    )


def _point_row(point: dict) -> tuple:
    return latency_cells(point) + (point["tx_retries"],
                                   point["frames_dropped"])


def render(results: dict) -> str:
    """The ``results/traffic.txt`` report for :func:`fold`'s results."""
    curve = render_table(
        f"Throughput–latency: open-loop Poisson sweep "
        f"({CLIENTS} clients, {REQUESTS} requests per point)",
        _HEADERS, [_point_row(point) for point in results["curve"]],
    )
    reference = next(point for point in results["curve"]
                     if point["mean_gap"] == REFERENCE_GAP)
    shapes = render_table(
        "Arrival shape and faults at the reference rate",
        _HEADERS + ["NoC lost", "retransmits"],
        [_point_row(point) + (point["noc_lost"], point["retransmits"])
         for point in (reference, results["bursty"], results["faulted"])],
    )
    replica_rows = [
        (replica, reference["route_counts"].get(replica, 0), served)
        for replica, served in sorted(
            reference["replica_requests"].items()
        )
    ]
    replicas = render_table(
        "Replica tier at the reference point (session router view)",
        ["replica", "sessions routed", "requests served"],
        replica_rows,
    )
    tail = results["tail"]
    total = tail["total_cycles"]
    attribution = render_table(
        f"Tail request attribution: req {tail['req_id']} — "
        f"{tail['latency']:,} cycles end-to-end, "
        f"{total:,} gateway-side (critical path)",
        ["component", "cycles", "share of gateway side"],
        breakdown_rows(tail["breakdown"], total),
    )
    faulted = results["faulted"]
    gateway_loads = ", ".join(
        f"gw{index}={served}"
        for index, served in enumerate(reference["served_by"])
    )
    lines = [
        curve,
        "",
        shapes,
        "",
        replicas,
        "",
        attribution,
        "",
        "Notes",
        "=====",
        f"gateway balance at the reference point: {gateway_loads}",
        f"tail residual (queueing before gateway pickup): "
        f"{tail['latency'] - total:,} cycles",
        f"fault window: drop rate {FAULT_DROP_RATE} in cycles "
        f"[{FAULT_WINDOW[0]:,}, {FAULT_WINDOW[1]:,}) — "
        f"{faulted['noc_lost']:,} packets dropped, "
        f"{faulted['retransmits']:,} DTU retransmits, "
        f"{faulted['completed']}/{faulted['sent']} requests still "
        f"completed",
        f"p99 under faults: {faulted['p99']:,} cycles vs "
        f"{reference['p99']:,} clean "
        f"(+{faulted['p99'] - reference['p99']:,})",
    ]
    return "\n".join(lines)


def fault_variant() -> str:
    """The ``traffic_fault`` eval: a harsher, differently-seeded plan.

    The main report's faulted point pins one plan; this one re-rolls
    the loss schedule at twice the rate, so the committed bytes also
    cover a distinct retransmit pattern.
    """
    plan = FaultPlan(DEFAULT_SEED + 1).drop(
        2 * FAULT_DROP_RATE, window=FAULT_WINDOW
    )
    point = _summarize(traffic.run_profile(
        _curve_profile(REFERENCE_GAP, name="fault-variant"),
        fault_plan=plan,
    ))
    return render_table(
        f"Traffic fault variant: drop rate {2 * FAULT_DROP_RATE} in "
        f"[{FAULT_WINDOW[0]:,}, {FAULT_WINDOW[1]:,})",
        _HEADERS + ["NoC lost", "retransmits"],
        [_point_row(point) + (point["noc_lost"], point["retransmits"])],
    )


EVAL = swept("traffic", POINTS, run_point, fold, render)
FAULT_EVAL = single("traffic_fault", fault_variant, str)
