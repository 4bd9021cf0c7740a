"""Elastic scaling: the autoscaler against a bursty serving tier.

The paper's elasticity story (Section 1) is that a kernel holding all
VPE state remotely can re-materialize compute wherever the load is.
This eval closes that loop end to end on the 4-domain variant platform:

- **Static vs elastic.** The same bursty open-loop load (PR 7's
  arrival shape) is driven twice at *equal offered load*: once against
  a fixed 2-replica kv tier with round-robin session routing, once
  against the same initial tier with queue-depth routing, the
  inter-kernel depth gossip, and the autoscaler switched on.  The
  autoscaler warm-boots clones of the busiest replica into underloaded
  domains (live cross-domain migration over the idempotent
  inter-kernel RPC), and the tail contracts.
- **The scale timeline.** Every controller action with its cycle,
  replica, target domain, and provenance (which replica donated the
  warm image) — plus the per-replica session-router counts showing the
  new capacity actually absorbing load.
- **Shrink.** A separate calm scenario: a 3-replica tier under no
  load drains and retires its newest replica, merging its store into
  the oldest survivor over a timed transfer.
- **Warm vs cold boot.** Cycles until a new replica can serve the hot
  keyset: a warm-booted clone (checkpoint image + live migration)
  against a cold boot that must refill its store one put at a time.

Fully deterministic: every number is a pure function of the profile
seed; ``runall`` reproduces ``results/autoscale.txt`` byte-identically
for any ``--jobs`` value.
"""

from __future__ import annotations

from repro.eval.common import DEFAULT_SEED, swept
from repro.eval.report import render_table
from repro.eval.traffic import (FAULT_DROP_RATE, FAULT_WINDOW,
                                LATENCY_HEADERS, _summarize, latency_cells,
                                loss_window_plan)
from repro.m3.autoscale import AutoScaler
from repro.m3.lib.service import start_service
from repro.m3.services.kvserv import KvClient, KvServ, start_kv_tier
from repro.m3.system import M3System, stat_sum
from repro.workloads import traffic

#: a 24-PE mesh split into 4 kernel domains, with 6 gateways spread
#: over the non-zero domains so the kv tier — not the gateway tier —
#: is the contended stage the autoscaler relieves.
PE_COUNT = 24
KERNEL_COUNT = 4
GATEWAYS = 6
EP_COUNT = 12

#: the bursty load point: past saturation for 2 replicas, inside the
#: linear region for 4.
REQUESTS = 600
CLIENTS = 480
BURST_GAP = 1_000
BURST = 12
#: gateways re-resolve their kv session every N served requests, so
#: the tier's reshaping actually reaches the data path.
SESSION_REFRESH = 4
#: the replicas are compute-heavy (a scoring/rendering tier): 2,000
#: service cycles per operation is what makes the *tier* — not the
#: datagram path — the contended stage the autoscaler relieves.
KV_OP_CYCLES = 2_000
#: both runs boot the same 2-replica tier (domains 1 and 2, next to
#: the gateways), leaving domains 0 and 3 as the scale-out headroom
#: the warm clones live-migrate into.
KV_DOMAINS = (1, 2)

#: controller knobs for the elastic run.  A sampled queue of 3 at one
#: replica is half the gateway tier stuck behind it — grow.  The
#: bursty run never retires (``down_total=-1``); drain-and-retire is
#: studied separately in :func:`shrink_demo`.
AUTOSCALE = dict(
    epoch=10_000,
    up_depth=3,
    down_total=-1,
    cooldown_epochs=2,
)


def _profile(name: str) -> traffic.TrafficProfile:
    return traffic.TrafficProfile(
        name=name, seed=DEFAULT_SEED, clients=CLIENTS, requests=REQUESTS,
        arrival="bursty", mean_gap=BURST_GAP, burst=BURST,
        session_refresh=SESSION_REFRESH,
    )


#: the two serving tiers: point -> (profile name, elastic?)
TIERS = {"static": ("static-2", False), "elastic": ("elastic", True)}


def _serve(name: str, elastic: bool,
           fault_plan=None) -> traffic.TrafficResult:
    kwargs: dict = dict(policy="rr")
    if elastic:
        kwargs = dict(policy="depth", heartbeats=True,
                      autoscale=dict(AUTOSCALE))
    return traffic.run_profile(
        _profile(name), fault_plan=fault_plan,
        pe_count=PE_COUNT, kernel_count=KERNEL_COUNT, gateways=GATEWAYS,
        ep_count=EP_COUNT, kv_domains=list(KV_DOMAINS),
        kv_op_cycles=KV_OP_CYCLES, **kwargs,
    )


# -- shrink scenario ----------------------------------------------------------


def shrink_demo() -> dict:
    """A calm 3-replica tier drains and retires its newest replica.

    Each replica is stocked with its own keys through real sessions;
    with the load gone, the controller's calm counter trips, the
    newest replica is pulled from the route, drains, and hands its
    store to the oldest survivor (a timed DTU transfer).
    """
    system = M3System(pe_count=PE_COUNT, kernel_count=KERNEL_COUNT,
                      reliable=True, ep_count=EP_COUNT)
    system.boot(with_fs=False)
    servers = start_kv_tier(system, domains=[0, 1, 2], policy="depth")
    loaded = system.sim.event("shrink.loaded")

    def loader(env):
        for index, server in enumerate(servers):
            client = yield from KvClient.connect(env, server.service_name)
            for key in range(8):
                yield from client.put(f"r{index}k{key}", b"\x5a" * 64)
            yield from client.close()
        loaded.succeed(None)

    system.spawn(loader, name="loader", domain=3)
    system.sim.run(until_event=loaded)
    if not loaded.triggered:
        raise RuntimeError("shrink loader failed")
    scaler = AutoScaler(system, servers, min_replicas=2, calm_epochs=2,
                        cooldown_epochs=1)
    scaler.start()
    window = system.sim.event("shrink.window")

    def clock():
        yield system.sim.delay(8 * scaler.epoch)
        window.succeed(None)

    system.sim.process(clock(), "shrink.clock")
    system.sim.run(until_event=window)
    scaler.stop()
    system.sim.run()
    survivor = servers[0]
    return {
        "timeline": list(scaler.events),
        "retired": sorted(scaler.retired),
        "survivor": survivor.service_name,
        "survivor_keys": len(survivor.store),
        "survivor_bytes": survivor.bytes_stored,
    }


# -- warm vs cold boot --------------------------------------------------------


def boot_comparison() -> dict:
    """Cycles until a new replica serves the hot keyset, both ways.

    **Warm**: the autoscaler's clone path — checkpoint the stocked
    donor, spawn the clone next to it seeded with the store image,
    live cross-domain migrate it, register.  **Cold**: boot an empty
    replica and refill it one put RPC at a time.  Both numbers are
    pure simulated cycles (deterministic), measured to the moment the
    replica could answer a get for every hot key.
    """
    system = M3System(pe_count=PE_COUNT, kernel_count=KERNEL_COUNT,
                      reliable=True, ep_count=EP_COUNT)
    system.boot(with_fs=False)
    servers = start_kv_tier(system, domains=[0], policy="depth",
                            op_cycles=KV_OP_CYCLES)
    # Stocked with the traffic gateways' pre-warm keyset.
    donor = servers[0]
    for key, value in traffic.WARM_KEYSET:
        donor.store[key] = value
        donor.bytes_stored += len(value)

    scaler = AutoScaler(system, servers, min_replicas=1, max_replicas=2)
    marks: dict = {}

    def warm_drive():
        start = system.sim.now
        grown = yield from scaler._scale_up(scaler._depths())
        marks["warm"] = system.sim.now - start
        marks["grown"] = grown

    system.sim.process(warm_drive(), "boot.warm")
    system.sim.run()
    if not marks.get("grown"):
        raise RuntimeError("warm boot failed to grow the tier")

    cold_start = system.sim.now
    start_service(
        system, KvServ(service_name="cold", op_cycles=KV_OP_CYCLES), domain=2
    )
    marks["cold_ready"] = system.sim.now - cold_start
    filled = system.sim.event("cold.filled")

    def filler(env):
        client = yield from KvClient.connect(env, "cold")
        for key, value in donor.store.items():
            yield from client.put(key, value)
        yield from client.close()
        filled.succeed(None)

    system.spawn(filler, name="filler", domain=2)
    system.sim.run(until_event=filled)
    marks["cold"] = system.sim.now - cold_start
    return {
        "keys": len(traffic.WARM_KEYSET),
        "warm_cycles": marks["warm"],
        "cold_ready_cycles": marks["cold_ready"],
        "cold_stocked_cycles": marks["cold"],
        "delta_cycles": marks["cold"] - marks["warm"],
    }


# -- the main comparison ------------------------------------------------------


#: one simulation per point: the two tiers at equal offered load,
#: then the side studies.
POINTS = (*TIERS, "shrink", "boot")


def run_point(point: str) -> dict:
    if point == "shrink":
        return shrink_demo()
    if point == "boot":
        return boot_comparison()
    result = _serve(*TIERS[point])
    if point == "static":
        return _summarize(result)
    scaler = result.scaler
    stats = result.system.stats()
    return {
        "elastic": _summarize(result),
        "timeline": list(scaler.events),
        "scaler": {
            "epochs": scaler.epochs,
            "scale_ups": scaler.scale_ups,
            "scale_downs": scaler.scale_downs,
            "replicas": sorted(scaler.servers),
        },
        "migrations": {
            "out": stat_sum(stats, "kernel", "migrations_out"),
            "in": stat_sum(stats, "kernel", "migrations_in"),
        },
    }


def fold(outcomes: dict) -> dict:
    """Static vs elastic at equal offered load, plus the side studies."""
    return {
        "static": outcomes["static"],
        **outcomes["elastic"],
        "shrink": outcomes["shrink"],
        "boot": outcomes["boot"],
    }


# -- rendering ----------------------------------------------------------------


def _point_row(point: dict) -> tuple:
    return latency_cells(point) + (point["kv_errors"],)


_POINT_HEADERS = ["tier", *LATENCY_HEADERS, "kv errors"]


def _timeline_table(title: str, events: list) -> str:
    """A controller's ``(cycle, action, replica, domain, detail)`` events."""
    return render_table(
        title, ["cycle", "action", "replica", "domain", "detail"],
        [(f"{cycle:,}", *event) for cycle, *event in events],
    )


def render(results: dict) -> str:
    """The ``results/autoscale.txt`` report for :func:`fold`'s results."""
    static, elastic = results["static"], results["elastic"]
    comparison = render_table(
        f"Elastic scaling: bursty load at equal offered rate "
        f"({CLIENTS} clients, {REQUESTS} requests, burst {BURST})",
        _POINT_HEADERS,
        [_point_row(static), _point_row(elastic)],
    )
    timeline = _timeline_table("Scale timeline (elastic run)",
                               results["timeline"])
    replicas = sorted(set(static["replica_requests"])
                      | set(elastic["replica_requests"]))
    routes = render_table(
        "Replica tier: sessions routed / requests served",
        ["replica", "static routed", "static served",
         "elastic routed", "elastic served"],
        [(replica,
          static["route_counts"].get(replica, 0),
          static["replica_requests"].get(replica, "-"),
          elastic["route_counts"].get(replica, 0),
          elastic["replica_requests"].get(replica, "-"))
         for replica in replicas],
    )
    shrink = results["shrink"]
    shrink_table = _timeline_table(
        "Shrink: a calm 3-replica tier retires its newest replica",
        shrink["timeline"],
    )
    boot = results["boot"]
    scaler = results["scaler"]
    migrations = results["migrations"]
    lines = [
        comparison,
        "",
        timeline,
        "",
        routes,
        "",
        shrink_table,
        "",
        "Notes",
        "=====",
        f"p99 under burst: elastic {elastic['p99']:,} cycles vs static "
        f"{static['p99']:,} ({elastic['p99'] - static['p99']:+,})",
        f"p999 under burst: elastic {elastic['p999']:,} cycles vs static "
        f"{static['p999']:,} ({elastic['p999'] - static['p999']:+,})",
        f"controller: {scaler['epochs']} epochs, "
        f"{scaler['scale_ups']} scale-ups, "
        f"{scaler['scale_downs']} scale-downs; final tier "
        f"{'/'.join(scaler['replicas'])}",
        f"cross-domain migrations: {migrations['out']} out, "
        f"{migrations['in']} in (idempotent inter-kernel RPC)",
        f"shrink: retired {'/'.join(shrink['retired'])}; survivor "
        f"{shrink['survivor']} holds {shrink['survivor_keys']} keys "
        f"({shrink['survivor_bytes']}B) after the merge",
        f"warm boot: {boot['warm_cycles']:,} cycles to a serving, "
        f"fully-stocked clone vs cold boot "
        f"{boot['cold_ready_cycles']:,} + refill to "
        f"{boot['cold_stocked_cycles']:,} cycles "
        f"({boot['keys']} keys) — warm saves "
        f"{boot['delta_cycles']:,} cycles",
    ]
    return "\n".join(lines)


def run_fault_point(tier: str) -> dict:
    """One tier ridden through a 1% mid-load loss window.

    The ``autoscale_fault`` eval: the depth gossip, migration RPCs,
    and controller decisions all keep their byte-identical outputs
    with the fault plan's retransmit pattern layered on top.
    """
    name, elastic = TIERS[tier]
    return _summarize(_serve(f"{name}/faulted", elastic,
                             fault_plan=loss_window_plan()))


def render_fault(points: dict) -> str:
    """The ``results/autoscale_fault.txt`` table."""
    return render_table(
        f"Autoscale fault variant: drop rate {FAULT_DROP_RATE} in "
        f"[{FAULT_WINDOW[0]:,}, {FAULT_WINDOW[1]:,})",
        _POINT_HEADERS + ["retransmits"],
        [_point_row(points[tier]) + (points[tier]["retransmits"],)
         for tier in TIERS],
    )


EVAL = swept("autoscale", POINTS, run_point, fold, render)
FAULT_EVAL = swept("autoscale_fault", tuple(TIERS), run_fault_point, dict,
                   render_fault)
