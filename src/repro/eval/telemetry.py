"""Streaming telemetry: epoch series, SLO burn rates, the flight recorder.

The observability PR's end-to-end demonstration, in two acts:

- **Serving under a fault window.**  The traffic eval's reference load
  point (Poisson arrivals at the reference rate) rides through its
  seeded mid-run packet-loss window with the telemetry plane attached:
  per-epoch goodput, latency quantiles, kv queue depths, NoC drops and
  DTU retransmits, all bucketed into 100k-cycle epochs.  Two SLOs
  watch the run — a latency objective on the end-to-end histogram and
  an availability objective on NoC delivery — and the multi-window
  burn-rate rules page on the fault window and resolve after it
  closes.
- **A domain kill under background loss.**  A two-domain system with
  heartbeats runs a syscall-heavy workload while a seeded fault plan
  drops packets throughout and halts domain 1's kernel core mid-run.
  The delivery SLO pages on the background loss *before* the heartbeat
  verdict; when the surviving kernel declares the peer dead, the
  failover verdict is annotated with that preceding alert and the
  flight recorder dumps each domain's final moments — the excerpt
  below is exactly what lands in CI artifacts after a real failure.

Everything is a pure function of the seeds: the report is
byte-identical across runs and worker counts.
"""

from __future__ import annotations

from repro.dtu.dtu import RETRANSMITS_SERIES
from repro.eval.common import DEFAULT_SEED, single, swept
from repro.eval.report import render_table
from repro.eval.traffic import (
    FAULT_DROP_RATE,
    FAULT_WINDOW,
    REFERENCE_GAP,
    _curve_profile,
)
from repro.faults import FaultPlan
from repro.m3.kernel import syscalls
from repro.m3.system import M3System
from repro.obs import SloMonitor, SloSpec, render_dump, render_prometheus
from repro.workloads import traffic

#: telemetry epoch for the serving act (cycles); the reference run
#: spans ~1.9M cycles, so the series is ~19 epochs long.
EPOCH = 100_000

#: the two SLOs watching the serving run.  The latency objective is a
#: slow leak under the fault window (only its ticket rule trips); the
#: delivery objective burns an order of magnitude past budget there,
#: so its page rule fires and resolves with the window.
LATENCY_SLO = SloSpec("gw-latency", target=0.99,
                      series="traffic.latency_cycles", threshold=6_000)
LATENCY_WINDOWS = (("page", 2, 6, 6.0), ("ticket", 4, 8, 1.5))
DELIVERY_SLO = SloSpec("noc-delivery", target=0.999,
                       bad_series="noc.packets_dropped",
                       total_series="noc.packets_injected")
DELIVERY_WINDOWS = (("page", 1, 4, 6.0), ("ticket", 2, 8, 2.0))

#: the domain-kill act: 12 PEs in two domains, packet loss from cycle
#: zero, domain 1's kernel core halted mid-run (same geometry as the
#: domain-failover eval, scaled down to a syscall-loop workload).
FAIL_PE_COUNT = 12
FAIL_KERNEL_COUNT = 2
FAIL_LOSS_RATE = 0.01
FAIL_KILL_AT = 24_000
FAIL_EPOCH = 6_000
#: the loss rate is 10x this objective's budget, so the page fires on
#: the very first epoch — well before the heartbeat death verdict.
FAIL_SLO = SloSpec("noc-delivery", target=0.99,
                   bad_series="noc.packets_dropped",
                   total_series="noc.packets_injected")
FAIL_WINDOWS = (("page", 1, 3, 3.0), ("ticket", 2, 6, 1.5))
#: syscall-loop workload: rounds x (compute + NOOP syscall) per worker.
FAIL_WORKERS = 2
FAIL_ROUNDS = 60
FAIL_COMPUTE = 800


def _last_epoch(telemetry) -> int:
    """The highest closed epoch index across every series."""
    last = 0
    for name in telemetry.names():
        points = telemetry.points(name)
        if points:
            last = max(last, points[-1][0])
    return last


def _alert_rows(monitors: dict) -> list[tuple]:
    """(cycle, slo, severity, state, short, long) rows, cycle-sorted."""
    rows = []
    for name, alerts in monitors.items():
        for cycle, severity, state, short, long_burn in alerts:
            rows.append((cycle, name, severity, state, short, long_burn))
    return sorted(rows)


# -- act one: the serving run -------------------------------------------------


def serving_results() -> dict:
    """The faulted reference point with telemetry and SLOs attached."""
    state: dict = {}

    def instrument(system):
        telemetry = system.enable_telemetry(epoch=EPOCH)
        obs = system.sim.obs
        state["telemetry"] = telemetry
        state["latency"] = SloMonitor(obs, LATENCY_SLO,
                                      windows=LATENCY_WINDOWS)
        state["delivery"] = SloMonitor(obs, DELIVERY_SLO,
                                       windows=DELIVERY_WINDOWS)

    plan = FaultPlan(DEFAULT_SEED).drop(FAULT_DROP_RATE,
                                        window=FAULT_WINDOW)
    result = traffic.run_profile(
        _curve_profile(REFERENCE_GAP, name="telemetered"),
        fault_plan=plan, observe=True, instrument=instrument,
    )
    telemetry = state["telemetry"]
    telemetry.flush()
    over_series = state["latency"].bad_series
    quantiles = dict(telemetry.points("traffic.latency_cycles"))
    epochs = []
    for index in range(_last_epoch(telemetry) + 1):
        histogram = quantiles.get(index)
        epochs.append({
            "epoch": index,
            "cycles": telemetry.end_cycle(index),
            "sent": telemetry.value_at("traffic.sent", index),
            "done": telemetry.value_at("traffic.completions", index),
            "p50": (histogram.percentile(0.50)
                    if histogram is not None and histogram.count else None),
            "p99": (histogram.percentile(0.99)
                    if histogram is not None and histogram.count else None),
            "over": telemetry.value_at(over_series, index),
            "kv0_depth": telemetry.value_at("kv.kv0.depth", index),
            "kv1_depth": telemetry.value_at("kv.kv1.depth", index),
            "noc_lost": telemetry.value_at("noc.packets_dropped", index),
            "retransmits": telemetry.value_at(RETRANSMITS_SERIES, index),
        })
    return {
        "completed": result.completed,
        "sent": result.sent,
        "epochs": epochs,
        "verdicts": [state["latency"].verdict(),
                     state["delivery"].verdict()],
        "timeline": list(state["delivery"].timeline),
        "alerts": _alert_rows({
            LATENCY_SLO.name: state["latency"].alerts,
            DELIVERY_SLO.name: state["delivery"].alerts,
        }),
    }


# -- act two: the domain kill -------------------------------------------------


def _syscall_worker(env, rounds: int, compute: int):
    """Compute + NOOP syscall loop — steady NoC traffic for the SLO."""
    for _ in range(rounds):
        yield env.compute(compute)
        yield from env.syscall(syscalls.NOOP)
    return rounds


def failover_results(seed: int = DEFAULT_SEED,
                     loss_rate: float = FAIL_LOSS_RATE) -> dict:
    """Kill a domain mid-run with the full observability stack on."""
    system = M3System(pe_count=FAIL_PE_COUNT,
                      kernel_count=FAIL_KERNEL_COUNT, reliable=True,
                      observe=True)
    plan = FaultPlan(seed).drop(loss_rate)
    plan.kill_pe(node=system.kernels[1].node, at=FAIL_KILL_AT)
    plan.install(system.platform)
    system.boot(with_fs=False)
    obs = system.sim.obs
    telemetry = system.enable_telemetry(epoch=FAIL_EPOCH)
    monitor = SloMonitor(obs, FAIL_SLO, windows=FAIL_WINDOWS)
    flight = system.enable_flight_recorder()
    system.start_heartbeats()
    workers = [
        system.spawn(_syscall_worker, FAIL_ROUNDS, FAIL_COMPUTE,
                     name=f"worker{index}", domain=0)
        for index in range(FAIL_WORKERS)
    ]
    finished = [system.wait(vpe) for vpe in workers]
    system.sim.run()  # drain heartbeat timers and the failover itself
    system.stop_heartbeats()
    telemetry.flush()

    failover = system.kernels[0].failover
    peer = detected = completed = reason = None
    if failover.failover_log:
        peer, detected, completed, reason = failover.failover_log[0]
    dump = next((d for d in flight.dumps if "declared dead" in d["reason"]),
                None)
    prom = render_prometheus(obs).splitlines()
    prom_excerpt = [
        line for line in prom
        if line.split()[2 if line.startswith("#") else 0].startswith(
            "kernel0_"
        )
    ]
    return {
        "workers_finished": finished,
        "killed_at": FAIL_KILL_AT,
        "loss_rate": loss_rate,
        "peer": peer,
        "detected_at": detected,
        "completed_at": completed,
        "reason": reason,
        "annotation": failover.failover_alerts.get(peer),
        "verdict": monitor.verdict(),
        "alerts": _alert_rows({FAIL_SLO.name: monitor.alerts}),
        "dump_text": (render_dump(dump, span_limit=4, instant_limit=8,
                                  series_limit=6)
                      if dump is not None else "(no flight dump)"),
        "prom_excerpt": prom_excerpt,
    }


#: one simulation per act.
POINTS = ("serving", "failover")


def run_point(act: str) -> dict:
    return serving_results() if act == "serving" else failover_results()


def run() -> dict:
    return {act: run_point(act) for act in POINTS}


# -- rendering ----------------------------------------------------------------


def _series_table(serving: dict) -> str:
    rows = [
        (point["epoch"], f"{point['cycles']:,}", point["sent"],
         point["done"],
         point["p50"] if point["p50"] is not None else "-",
         point["p99"] if point["p99"] is not None else "-",
         point["over"], point["kv0_depth"], point["kv1_depth"],
         point["noc_lost"], point["retransmits"])
        for point in serving["epochs"]
    ]
    return render_table(
        f"Serving telemetry at the faulted reference point "
        f"(epoch = {EPOCH:,} cycles)",
        ["epoch", "end cycle", "sent", "done", "p50", "p99",
         f">{LATENCY_SLO.threshold // 1000}k", "kv0 q", "kv1 q",
         "NoC lost", "rtx"],
        rows,
    )


def _verdict_table(title: str, verdicts: list[dict]) -> str:
    rows = [
        (verdict["name"], verdict["objective"],
         f"{verdict['bad']}/{verdict['total']}",
         f"{verdict['good_fraction']:.4%}",
         f"{verdict['worst_burn']:.1f}x", verdict["alerts"],
         "BREACHED" if verdict["breached"] else "ok")
        for verdict in verdicts
    ]
    return render_table(
        title,
        ["slo", "objective", "bad/total", "good", "worst burn",
         "alerts", "verdict"],
        rows,
    )


def _timeline_table(timeline: list) -> str:
    rows = []
    for index, end_cycle, bad, total, burns, active in timeline:
        page_short, page_long = burns["page"]
        ticket_short, ticket_long = burns["ticket"]
        rows.append((
            index, f"{end_cycle:,}", bad, total,
            f"{page_short:.1f}", f"{page_long:.1f}",
            f"{ticket_short:.1f}", f"{ticket_long:.1f}",
            "+".join(active) if active else "-",
        ))
    page, ticket = DELIVERY_WINDOWS
    return render_table(
        f"Burn-rate timeline: {DELIVERY_SLO.name} "
        f"(page {page[1]}/{page[2]} epochs @ {page[3]:g}x, "
        f"ticket {ticket[1]}/{ticket[2]} epochs @ {ticket[3]:g}x)",
        ["epoch", "end cycle", "bad", "total", "page s", "page l",
         "ticket s", "ticket l", "firing"],
        rows,
    )


def _alert_lines(alerts: list) -> list[str]:
    return [
        f"cycle {cycle:>9,}: [{severity}] {name} {state} "
        f"(burn short {short:.1f}x / long {long_burn:.1f}x)"
        for cycle, name, severity, state, short, long_burn in alerts
    ]


def render(results: dict) -> str:
    """The ``results/telemetry.txt`` report for :func:`run`."""
    serving = results["serving"]
    failover = results["failover"]
    annotation = failover["annotation"]
    lines = [
        _series_table(serving),
        "",
        _verdict_table("SLO verdicts over the serving run",
                       serving["verdicts"]),
        "",
        _timeline_table(serving["timeline"]),
        "",
        "Alert log (serving run)",
        "=======================",
        *_alert_lines(serving["alerts"]),
        "",
        "Failure flight recorder: domain kill under background loss",
        "==========================================================",
        f"packet loss rate {failover['loss_rate']} from boot; kernel "
        f"domain 1 core halted at cycle {failover['killed_at']:,}",
        *_alert_lines(failover["alerts"]),
        f"heartbeat verdict declared domain {failover['peer']} dead at "
        f"cycle {failover['detected_at']:,} ({failover['reason']}); "
        f"failover completed at cycle {failover['completed_at']:,}",
        (f"verdict annotation: preceded by [{annotation[2]}] "
         f"{annotation[1]} fired at cycle {annotation[0]:,} "
         f"({failover['detected_at'] - annotation[0]:,} cycles before "
         f"the death verdict)"
         if annotation is not None else "verdict annotation: none"),
        "",
        failover["dump_text"],
        "",
        "Prometheus exposition excerpt (surviving kernel's counters)",
        "===========================================================",
        *failover["prom_excerpt"],
    ]
    return "\n".join(lines)


def flight_variant() -> str:
    """The ``telemetry_flight`` eval: a harsher, differently-seeded kill.

    Re-rolls the loss schedule at twice the rate under a new seed, so
    the committed bytes cover a distinct alert/dump pattern from the
    main report's.
    """
    results = failover_results(seed=DEFAULT_SEED + 1,
                               loss_rate=2 * FAIL_LOSS_RATE)
    lines = [
        _verdict_table(
            f"Flight variant: loss {2 * FAIL_LOSS_RATE}, domain 1 "
            f"killed at cycle {FAIL_KILL_AT:,}",
            [results["verdict"]],
        ),
        *_alert_lines(results["alerts"]),
        f"death verdict at cycle {results['detected_at']:,}; "
        f"failover done at cycle {results['completed_at']:,}",
        "",
        results["dump_text"],
    ]
    return "\n".join(lines)


EVAL = swept("telemetry", POINTS, run_point, render)
FLIGHT_EVAL = single("telemetry_flight", flight_variant, str)
