"""traffic: seeded open-loop load over the NIC datagram path.

The paper's motivating workload is a manycore *serving* heavy traffic;
this module builds that serving stack out of the repo's own pieces and
drives it with a deterministic open-loop load generator:

- A **load generator** VPE multiplexes hundreds of simulated clients
  over one netserv datagram session.  Arrivals follow a seeded Poisson
  or bursty process; request sizes follow a bounded-Pareto (heavy
  tail).  Open loop means arrivals do not wait for completions: when
  the stack falls behind, queueing delay shows up in the measured
  latency instead of silently throttling the offered load.
- **Gateway** VPEs sit behind the second NIC: each binds a datagram
  port, opens a session against the *logical* ``"kv"`` name — the
  kernels' session router picks a replica, locally or across the
  inter-kernel ``srv_open`` path — and turns each request datagram
  into a kv get/put plus a response datagram.
- A **collector** VPE owns the response port and timestamps
  completions; latency is measured from the *scheduled* arrival, so it
  includes every queue in the path (loadgen backlog, TX-ring waits,
  socket inboxes, kv service time).

Everything is seeded and simulated, so a run is a pure function of its
:class:`TrafficProfile`: same profile, same cycle counts, byte for
byte.
"""

from __future__ import annotations

import dataclasses
import random
import struct
import typing

from repro.m3.services.kvserv import KvClient, KvError, KvServ, MAX_VALUE_BYTES, start_kv_tier
from repro.m3.services.netserv import MAX_PAYLOAD, NetClient, start_network
from repro.m3.system import M3System, stat_sum
from repro.obs.metrics import Histogram

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.faults.plan import FaultPlan

#: request datagram: req_id, client, value_len, op, key_id (+ padding
#: that models the payload bytes actually crossing the wire).
_REQ = struct.Struct("<IHHBB")
#: response datagram: req_id, client, result_len, status (+ padding).
_RSP = struct.Struct("<IHHB")

OP_GET, OP_PUT = 0, 1
ST_OK, ST_MISS, ST_ERR = 0, 1, 2
#: req_id that tells a gateway to shut down (sent by the collector).
STOP_REQ_ID = 0xFFFFFFFF

#: port plan: the collector owns the response port; gateway i binds
#: GATEWAY_BASE_PORT + i; the loadgen's own port only marks the source.
LOADGEN_PORT = 9
RESPONSE_PORT = 7
GATEWAY_BASE_PORT = 100

#: fixed platform shape: two kernel domains of 6 PEs each.  Domain 0
#: hosts both netserv instances, the kv0 replica, the loadgen, and the
#: collector; domain 1 hosts kv1 and the gateways, so gateway 0's
#: routed session crosses domains (kv0) while gateway 1's stays local.
PE_COUNT = 12
KERNEL_COUNT = 2
GATEWAYS = 2

#: polling cadences (cycles) for the gateway and collector recv loops.
GATEWAY_POLL_CYCLES = 800
COLLECTOR_POLL_CYCLES = 1_000
#: backoff between retries when a TX ring is momentarily full.
TX_RETRY_CYCLES = 300
TX_RETRY_ATTEMPTS = 400

#: bursty arrivals: spacing in cycles within a burst.
BURST_SPACING = 40
#: bounded-Pareto value-size tail: SIZE_FLOOR..MAX_VALUE_BYTES bytes.
SIZE_FLOOR = 16
SIZE_ALPHA = 1.1
#: distinct keys; ``key_id`` travels in one byte of the request.
KEYS = 64
#: how long the collector keeps polling after the last send.
DRAIN_CYCLES = 600_000

_PAD = b"\x5a"


@dataclasses.dataclass(frozen=True)
class TrafficProfile:
    """One load point: everything a run is a deterministic function of."""

    name: str = "poisson"
    seed: int = 20160402
    #: simulated clients multiplexed over the loadgen's NIC session.
    clients: int = 480
    requests: int = 240
    arrival: str = "poisson"  # "poisson" | "bursty"
    #: mean inter-arrival gap in cycles (per request, both processes).
    mean_gap: int = 3_000
    #: bursty only: arrivals per burst (gaps stretch to keep the rate).
    burst: int = 8
    get_fraction: float = 0.70
    #: gateways close and re-open their kv session every N served
    #: requests (0 = never).  Session churn is what lets a draining
    #: replica actually empty out and what spreads an elastic tier's
    #: load onto newly-added replicas.
    session_refresh: int = 0

    def __post_init__(self):
        if self.arrival not in ("poisson", "bursty"):
            raise ValueError(f"unknown arrival process {self.arrival!r}")
        # build_schedule draws a client per request and divides by the
        # gap and the burst; run_profile reads schedule[0].
        for field in ("requests", "clients", "mean_gap", "burst"):
            value = getattr(self, field)
            if value < 1:
                raise ValueError(f"bad {field} {value}: must be >= 1")
        if not 0 <= self.get_fraction <= 1:
            raise ValueError(f"bad get_fraction {self.get_fraction}: "
                             "must be within [0, 1]")
        if self.session_refresh < 0:
            raise ValueError(f"bad session_refresh {self.session_refresh}")


@dataclasses.dataclass(frozen=True)
class Arrival:
    """One scheduled request (cycles relative to load start)."""

    req_id: int
    at: int
    client: int
    op: int
    key_id: int
    value_len: int


def _bounded_pareto(rng: random.Random, lo: int, hi: int, alpha: float) -> int:
    """A bounded-Pareto draw via the inverse CDF (heavy tail in [lo, hi])."""
    u = rng.random()
    la, ha = lo ** alpha, hi ** alpha
    x = (la * ha / (ha - u * (ha - la))) ** (1.0 / alpha)
    return min(hi, max(lo, int(x)))


def build_schedule(profile: TrafficProfile) -> tuple:
    """The full arrival schedule, a pure function of the profile.

    Poisson: exponential inter-arrival gaps with mean ``mean_gap``.
    Bursty: bursts of ``burst`` back-to-back arrivals, separated by
    exponential gaps with mean ``burst * mean_gap`` — same offered
    rate, very different queueing behaviour.
    """
    rng = random.Random(profile.seed)
    arrivals = []
    now = 0
    while len(arrivals) < profile.requests:
        if profile.arrival == "poisson":
            now += max(1, int(rng.expovariate(1.0 / profile.mean_gap)))
            batch = 1
        else:
            now += max(1, int(rng.expovariate(
                1.0 / (profile.mean_gap * profile.burst))))
            batch = profile.burst
        for index in range(min(batch, profile.requests - len(arrivals))):
            op = OP_GET if rng.random() < profile.get_fraction else OP_PUT
            value_len = 0
            if op == OP_PUT:
                value_len = _bounded_pareto(rng, SIZE_FLOOR,
                                            MAX_VALUE_BYTES, SIZE_ALPHA)
            arrivals.append(Arrival(
                req_id=len(arrivals) + 1,
                at=now + index * BURST_SPACING,
                client=rng.randrange(profile.clients),
                op=op,
                key_id=rng.randrange(KEYS),
                value_len=value_len,
            ))
    return tuple(arrivals)


def _key(key_id: int) -> str:
    return f"k{key_id}"


#: what each gateway puts into its routed kv shard before serving, so
#: gets hit: every key, with a deterministic 32..159-byte value.
WARM_KEYSET = tuple((_key(key_id), _PAD * (32 + (key_id * 7) % 128))
                    for key_id in range(KEYS))


class TrafficRun:
    """Shared measurement state between the loadgen, gateways, and
    collector (bookkeeping only — all data crosses the wire)."""

    def __init__(self, profile: TrafficProfile, gateways: int = GATEWAYS):
        self.profile = profile
        self.gateways = gateways
        self.schedule = build_schedule(profile)
        #: req_id -> absolute scheduled-arrival cycle (set by loadgen).
        self.sent: dict[int, int] = {}
        #: req_id -> (completion cycle, status, result_len).
        self.completions: dict[int, tuple] = {}
        self.started_at: int | None = None
        self.sent_all_at: int | None = None
        self.tx_retries = 0
        self.gw_tx_retries = 0
        self.kv_errors = 0
        self.served_by: list[int] = [0] * gateways


def _send_with_retry(net: NetClient, dst_port: int, payload: bytes,
                     run: TrafficRun, gateway: bool = False):
    """Generator: send_to with bounded backoff when the TX ring is full."""
    for _ in range(TX_RETRY_ATTEMPTS):
        try:
            return (yield from net.send_to(dst_port, payload))
        except RuntimeError as exc:
            if "tx ring full" not in str(exc):
                raise
            if gateway:
                run.gw_tx_retries += 1
            else:
                run.tx_retries += 1
            yield TX_RETRY_CYCLES
    raise RuntimeError(
        f"tx ring to port {dst_port} stayed full after "
        f"{TX_RETRY_ATTEMPTS} attempts"
    )


# -- the three app roles ------------------------------------------------------


def gateway_app(env, run: TrafficRun, index: int, ready):
    """Bind a service port, pre-warm the routed kv shard, serve."""
    net = yield from NetClient.connect(env, "net2")
    yield from net.bind(GATEWAY_BASE_PORT + index)
    kv = yield from KvClient.connect(env, "kv")
    for key, value in WARM_KEYSET:
        yield from kv.put(key, value)
    ready.succeed(index)
    refresh = run.profile.session_refresh
    served_since_refresh = 0
    while True:
        datagram = yield from net.recv()
        if datagram is None:
            yield GATEWAY_POLL_CYCLES
            continue
        _src_port, payload = datagram
        req_id, client, value_len, op, key_id = _REQ.unpack_from(payload)
        if req_id == STOP_REQ_ID:
            break
        obs = env.sim.obs
        span = obs.begin(f"req{req_id}", "traffic", env.pe.node,
                         gateway=index) if obs is not None else -1
        status, result_len = ST_OK, 0
        try:
            if op == OP_GET:
                value = yield from kv.get(_key(key_id))
                if value is None:
                    status = ST_MISS
                else:
                    result_len = len(value)
            else:
                result_len = yield from kv.put(_key(key_id),
                                               _PAD * value_len)
        except KvError:
            status = ST_ERR
            run.kv_errors += 1
        response = _RSP.pack(req_id, client, result_len, status)
        response += _PAD * min(result_len, MAX_PAYLOAD - _RSP.size)
        yield from _send_with_retry(net, RESPONSE_PORT, response, run,
                                    gateway=True)
        run.served_by[index] += 1
        if obs is not None:
            obs.end(span, status=status)
        if refresh:
            served_since_refresh += 1
            if served_since_refresh >= refresh:
                # Session churn: re-resolve the route, so the gateway
                # follows the tier as the autoscaler reshapes it.
                served_since_refresh = 0
                yield from kv.close()
                kv = yield from KvClient.connect(env, "kv")
    yield from kv.close()
    yield from net.close()
    return run.served_by[index]


def loadgen_app(env, run: TrafficRun):
    """Replay the arrival schedule open-loop over one datagram session."""
    net = yield from NetClient.connect(env, "net")
    yield from net.bind(LOADGEN_PORT)
    base = env.sim.now
    run.started_at = base
    for arrival in run.schedule:
        at = base + arrival.at
        if env.sim.now < at:
            yield at - env.sim.now
        payload = _REQ.pack(arrival.req_id, arrival.client,
                            arrival.value_len, arrival.op, arrival.key_id)
        if arrival.op == OP_PUT:
            payload += _PAD * min(arrival.value_len,
                                  MAX_PAYLOAD - _REQ.size)
        obs = env.sim.obs
        span = obs.begin(f"inject{arrival.req_id}", "traffic",
                         env.pe.node) if obs is not None else -1
        # Latency is measured from the *scheduled* arrival: open-loop
        # backlog at the loadgen itself counts as queueing delay.
        run.sent[arrival.req_id] = at
        gw_port = GATEWAY_BASE_PORT + (arrival.client % run.gateways)
        yield from _send_with_retry(net, gw_port, payload, run)
        if obs is not None:
            obs.end(span)
            obs.count("traffic.sent")
    run.sent_all_at = env.sim.now
    yield from net.close()
    return len(run.schedule)


def collector_app(env, run: TrafficRun):
    """Own the response port; timestamp completions; stop the gateways."""
    net = yield from NetClient.connect(env, "net")
    yield from net.bind(RESPONSE_PORT)
    expected = len(run.schedule)
    while len(run.completions) < expected:
        datagram = yield from net.recv()
        if datagram is None:
            if (run.sent_all_at is not None
                    and env.sim.now > run.sent_all_at + DRAIN_CYCLES):
                break  # give up on dropped responses
            yield COLLECTOR_POLL_CYCLES
            continue
        _src_port, payload = datagram
        req_id, _client, result_len, status = _RSP.unpack_from(payload)
        if req_id not in run.completions:
            run.completions[req_id] = (env.sim.now, status, result_len)
            obs = env.sim.obs
            if obs is not None:
                obs.count("traffic.completions")
                obs.observe("traffic.latency_cycles",
                            env.sim.now - run.sent[req_id])
    stop = _REQ.pack(STOP_REQ_ID, 0, 0, 0, 0)
    for index in range(run.gateways):
        yield from _send_with_retry(net, GATEWAY_BASE_PORT + index, stop,
                                    run)
    yield from net.close()
    return len(run.completions)


# -- driving one load point ---------------------------------------------------


@dataclasses.dataclass
class TrafficResult:
    """Everything one load point measured."""

    profile: TrafficProfile
    sent: int
    completed: int
    #: req_id -> end-to-end cycles (scheduled arrival -> response).
    latencies: dict
    histogram: Histogram
    offered_per_mcycle: float
    goodput_per_mcycle: float
    tx_retries: int
    gw_tx_retries: int
    kv_errors: int
    served_by: list
    system: M3System
    #: the AutoScaler instance when elastic scaling was on (its
    #: ``events`` list is the scale timeline), else None.
    scaler: object = None

    # The counters, read from the drained system's stats().

    @property
    def frames_dropped(self) -> int:
        """Received frames both netserv instances dropped."""
        return stat_sum(self.system.stats(), "net", "frames_dropped")

    @property
    def route_counts(self) -> dict:
        """replica name -> sessions the kernels routed to it."""
        counts: dict = {}
        for key, value in self.system.stats().items():
            _kernel, routed, replica = key.partition(".router.")
            if routed:
                counts[replica] = counts.get(replica, 0) + value
        return counts

    @property
    def replica_requests(self) -> dict:
        """kv replica name -> requests it served (pre-warm puts
        included), retired replicas too."""
        stats = self.system.stats()
        return {name: stats[f"{name}.requests"]
                for name, server in self.system.servers.items()
                if isinstance(server, KvServ)}


def run_profile(profile: TrafficProfile,
                fault_plan: "FaultPlan | None" = None,
                observe: bool = False,
                pe_count: int = PE_COUNT,
                kernel_count: int = KERNEL_COUNT,
                gateways: int = GATEWAYS,
                policy: str = "rr",
                kv_domains: list | None = None,
                kv_op_cycles: int | None = None,
                heartbeats: bool = False,
                autoscale: dict | None = None,
                instrument=None,
                **system_kwargs) -> TrafficResult:
    """Boot the serving stack, drive one load point, measure it.

    ``pe_count``/``kernel_count``/``gateways`` grow the platform for
    scale variants (defaults are the fixed 12-PE, 2-domain shape
    above).  Gateways spread round-robin over the non-zero domains, so
    the default places both in domain 1 exactly as before.  Extra
    keyword arguments reach ``M3System`` (e.g. ``ep_count`` — a
    4-domain kernel needs a bigger EP table for its peer send gates).

    Elastic-scaling knobs (all off by default — the defaults are
    byte-identical to the pre-elastic stack): ``policy`` selects the
    session-router balancing policy (``"rr"``/``"depth"``);
    ``kv_domains`` places the initial kv tier (one replica a domain);
    ``kv_op_cycles`` makes the replicas compute-heavy (per-op service
    cycles, modelling a scoring/rendering tier);
    ``heartbeats`` starts the kernel heartbeat ring (the carrier for
    the queue-depth gossip); ``autoscale`` is a keyword dict for
    :class:`repro.m3.autoscale.AutoScaler` (e.g. ``{"epoch": 40_000,
    "up_depth": 8}``) that switches the controller on.

    ``instrument`` is an optional callable invoked with the booted
    system before any service starts — the hook the telemetry eval
    uses to attach the streaming telemetry plane, SLO monitors, and
    the flight recorder so they see the whole run (the kv tier
    registers its queue-depth samplers only if telemetry is already
    on when it boots).
    """
    if kernel_count < 2:
        raise ValueError(
            f"kernel_count={kernel_count}: the serving stack needs a domain "
            "for the gateways besides domain 0 (kernel_count >= 2)"
        )
    if gateways < 1:
        raise ValueError(f"gateways={gateways}: the serving stack needs "
                         "at least one gateway")
    system = M3System(pe_count=pe_count, kernel_count=kernel_count,
                      reliable=True, observe=observe, **system_kwargs)
    if fault_plan is not None:
        fault_plan.install(system.platform)
    system.boot(with_fs=False)
    if instrument is not None:
        instrument(system)
    start_network(system)
    kv_servers = start_kv_tier(system, domains=kv_domains, policy=policy,
                               op_cycles=kv_op_cycles)
    scaler = None
    if heartbeats:
        system.start_heartbeats()
    if autoscale is not None:
        from repro.m3.autoscale import AutoScaler

        scaler = AutoScaler(system, kv_servers, **autoscale)
        scaler.start()
    run = TrafficRun(profile, gateways=gateways)
    gw_vpes = []
    for index in range(gateways):
        ready = system.sim.event(f"gw{index}.ready")
        gw_vpes.append(system.spawn(gateway_app, run, index, ready,
                                    name=f"gw{index}",
                                    domain=1 + index % (kernel_count - 1)))
        system.sim.run(until_event=ready)
        if not ready.triggered:
            raise RuntimeError(f"traffic gateway {index} failed to start")
    collector_vpe = system.spawn(collector_app, run, name="collector")
    loadgen_vpe = system.spawn(loadgen_app, run, name="loadgen")
    sent = system.wait(loadgen_vpe)
    completed = system.wait(collector_vpe)
    for vpe in gw_vpes:
        system.wait(vpe)
    if scaler is not None:
        scaler.stop()
    if heartbeats:
        system.stop_heartbeats()
    system.sim.run()  # drain retry timers and late frames

    histogram = Histogram("traffic.latency", precision=7)
    latencies = {}
    last_completion = run.started_at or 0
    for req_id, (done_at, _status, _length) in sorted(run.completions.items()):
        latency = done_at - run.sent[req_id]
        latencies[req_id] = latency
        histogram.observe(latency)
        last_completion = max(last_completion, done_at)
    first_at = (run.started_at or 0) + run.schedule[0].at
    makespan = max(1, last_completion - first_at)
    arrival_span = max(1, run.schedule[-1].at - run.schedule[0].at)
    return TrafficResult(
        profile=profile,
        sent=sent,
        completed=completed,
        latencies=latencies,
        histogram=histogram,
        offered_per_mcycle=1e6 * (sent - 1) / arrival_span,
        goodput_per_mcycle=1e6 * completed / makespan,
        tx_retries=run.tx_retries,
        gw_tx_retries=run.gw_tx_retries,
        kv_errors=run.kv_errors,
        served_by=list(run.served_by),
        system=system,
        scaler=scaler,
    )
