"""M3System: boots the OS on a platform and hosts test/benchmark runs.

Responsibilities:

- construct the kernel on its dedicated PE and run its boot sequence
  (endpoint setup + downgrading all application DTUs),
- provide the kernel's software loader hook (the simulation stand-in
  for "the kernel writes the PE's boot registers via the DTU"),
- start OS services (m3fs) and initial applications,
- map program names to entry functions for ``exec``.
"""

from __future__ import annotations

import typing

from repro.dtu.dtu import OBSERVED_TOTALS as DTU_TOTALS
from repro.hw.platform import Platform
from repro.m3.kernel.kernel import OBSERVED_RETRIES, OBSERVED_TOTALS, Kernel
from repro.m3.kernel.syscalls import SyscallError
from repro.m3.kernel.vpe import VpeObject
from repro.m3.lib.env import Env
from repro.m3.lib.service import start_service

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.m3.lib.service import Server
    from repro.m3.services.m3fs.server import M3fsServer


def stat_sum(stats: dict, scope: str, name: str) -> int:
    """The sum of the ``scope.….name`` entries of an :meth:`M3System.stats`
    dict: one per node, domain or service, or ``scope.name`` itself."""
    head, tail = scope + ".", "." + name
    return sum(value for key, value in stats.items()
               if key.startswith(head) and key.endswith(tail))


class M3System:
    """The booted OS: kernel + services on a :class:`Platform`."""

    def __init__(self, pe_count: int = 8, kernel_count: int = 1,
                 multiplexing: bool = False, reliable: bool = False,
                 observe: bool = False, **platform_kwargs):
        if kernel_count < 1:
            raise ValueError(f"kernel_count={kernel_count}: a system needs "
                             "at least one kernel")
        self.platform = Platform.build(pe_count, **platform_kwargs)
        #: whether DTUs run with reliable delivery; device DTUs created
        #: after boot (e.g. NICs) consult this to match the chip.
        self.reliable = reliable
        if reliable:
            # Reliable (acked/retransmitted) DTU messaging — required
            # under an injected fault plan, cycle-identical paths when off.
            self.platform.enable_reliable_messaging()
        self.sim = self.platform.sim
        if observe:
            self.enable_observability()
        #: the booted kernels, one per domain: the PE mesh is split into
        #: ``kernel_count`` contiguous domains, each with its own kernel,
        #: VPE table, service registry, and DRAM shard.  A lone kernel
        #: owns the whole mesh and all of DRAM; several cooperate over
        #: the inter-kernel protocol (see docs/protocols.md).
        pe_count = len(self.platform.pes)  # PEs fill nodes 0..n-1
        if pe_count < 2 * kernel_count:
            raise ValueError(
                f"{pe_count} PEs cannot host {kernel_count} kernel "
                "domains (each needs a kernel PE plus at least one "
                "application PE)"
            )
        share, extra = divmod(pe_count, kernel_count)
        dram_share = self.platform.dram.memory.size // kernel_count
        self.kernels: list[Kernel] = []
        start = 0
        for domain_id in range(kernel_count):
            size = share + (1 if domain_id < extra else 0)
            self.kernels.append(Kernel(
                self.platform, start, domain_id, range(start, start + size),
                domain_id * dram_share, dram_share,
            ))
            start += size
        if kernel_count > 1:
            for kernel in self.kernels:
                kernel.set_peers(
                    {
                        other.kernel_id: other.node
                        for other in self.kernels if other is not kernel
                    },
                    peer_domains={
                        other.kernel_id: other.domain
                        for other in self.kernels if other is not kernel
                    },
                )
        self.kernel = self.kernels[0]
        for kernel in self.kernels:
            kernel.start_software = self._start_software
            kernel.load_program = self._load_program
            kernel.multiplexing = multiplexing
        #: program name -> entry generator function, for ``VPE.exec``.
        self.programs: dict[str, typing.Callable] = {}
        self.fs_server: "M3fsServer | None" = None
        #: all filesystem service instances by service name.
        self.fs_servers: dict[str, "M3fsServer"] = {}
        #: every service that ever registered, by name — filled by
        #: ``Server.main``, retired ones kept (read by :meth:`stats`).
        self.servers: dict[str, "Server"] = {}
        #: serial console: (cycle, vpe_id, line) records.
        self.serial_log: list = []

    def enable_observability(self, **kwargs):
        """Install a :class:`repro.obs.Observer` on the simulator.

        Until this is called the instrumented components pay a single
        branch per event and existing results stay bit-identical.
        Returns the observer (also available as ``self.sim.obs``).
        """
        from repro.obs import Observer

        return Observer.install(self.sim, **kwargs)

    def enable_telemetry(self, epoch: int):
        """Attach the streaming telemetry plane of ``epoch``-cycle epochs
        (requires an observer).

        Returns the :class:`repro.obs.Telemetry` hub; from here on the
        Observer's counters/gauges/histograms also fold into per-epoch
        series, and each NoC link's occupancy is one (``noc.link.*``,
        see docs/observability.md, "Telemetry").
        """
        from repro.obs.timeseries import LinkOccupancy

        if self.sim.obs is None:
            raise RuntimeError(
                "enable observability before telemetry (observe=True "
                "or enable_observability())"
            )
        telemetry = self.sim.obs.enable_telemetry(epoch)
        telemetry.add_sampler(LinkOccupancy(self.platform.network))
        return telemetry

    def domain_map(self) -> dict[int, int]:
        """NoC node -> kernel-domain id, for failure attribution."""
        mapping: dict[int, int] = {}
        for kernel in self.kernels:
            for node in kernel.domain:
                mapping[node] = kernel.kernel_id
        return mapping

    def stats(self) -> dict:
        """Every component's totals as one flat dict, sorted, with
        dotted names: ``noc.*``, ``dtu.<node>.*`` (the PEs' DTUs),
        ``kernel.<domain>.*``, then each service's own
        (docs/observability.md, "Counters").  Read after a run."""
        stats = {f"noc.{name}": value
                 for name, value in self.platform.network.stats().items()}
        for pe in self.platform.pes:
            for name, value in pe.dtu.stats().items():
                stats[f"dtu.{pe.node}.{name}"] = value
        for kernel in self.kernels:
            for name, value in kernel.stats().items():
                stats[f"kernel.{kernel.kernel_id}.{name}"] = value
        for server in self.servers.values():
            stats.update(server.stats())
        return dict(sorted(stats.items()))

    def enable_flight_recorder(self):
        """Attach a flight recorder wired to this system's domain map
        (requires an observer).  Returns the recorder."""
        if self.sim.obs is None:
            raise RuntimeError(
                "enable observability before the flight recorder"
            )
        recorder = self.sim.obs.enable_flight_recorder()
        recorder.map_nodes(self.domain_map())
        return recorder

    # -- boot -----------------------------------------------------------------

    def boot(self, with_fs: bool = True, fs_kwargs: dict | None = None) -> "M3System":
        """Run the kernel boot sequence(s) and start services; returns self."""
        obs = self.sim.obs
        if obs is not None:
            # Perfetto process labels: kernel domains and the DRAM node
            # (apps/services label their nodes as they start); the
            # counters the DTUs and kernels keep, sampled from here on.
            for kernel in self.kernels:
                obs.label_node(kernel.node, kernel.label)
                obs.monitor({f"kernel{kernel.kernel_id}.ik_retries":
                             OBSERVED_RETRIES}, kernel)
            obs.label_node(self.platform.dram_node, "DRAM")
            obs.monitor(OBSERVED_TOTALS, *self.kernels)
            obs.monitor(DTU_TOTALS, *(pe.dtu for pe in self.platform.pes))
        for kernel in self.kernels:
            self.sim.run_process(kernel.boot(), f"{kernel.label}.boot")
            # A killed kernel PE interrupts the loop, which ends it
            # quietly: its peers detect the death via heartbeats.
            kernel.pe.run(kernel.run(), kernel.label)
        if with_fs:
            self.start_m3fs(**(fs_kwargs or {}))
        return self

    def start_heartbeats(self, **kwargs) -> None:
        """Start the peer heartbeat ring on every kernel that has peers
        (no-op on single-kernel layouts).  Only meaningful when the
        system was built with ``reliable=True``; see
        docs/protocols.md, "Failure model & recovery"."""
        for kernel in self.kernels:
            if kernel.peers:
                kernel.failover.start_heartbeat(**kwargs)

    def stop_heartbeats(self) -> None:
        for kernel in self.kernels:
            if kernel.peers:
                kernel.failover.stop_heartbeat()

    def start_m3fs(self, name: str = "m3fs", domain: int | None = None,
                   **fs_kwargs) -> "M3fsServer":
        """Start an m3fs service instance and wait until it is registered.

        Multiple instances (the paper's Section 7 future work) are
        supported by giving each a distinct service name; clients pick
        theirs via ``M3fsClient.connect(env, service=name)``.  With a
        partitioned mesh, ``domain`` places the instance in a specific
        kernel domain.
        """
        from repro.m3.services.m3fs.server import M3fsServer

        server = start_service(
            self, M3fsServer(service_name=name, **fs_kwargs), domain
        )
        self.fs_servers[name] = server
        if self.fs_server is None:
            self.fs_server = server
        return server

    def register_service_route(self, name: str, replicas,
                               policy: str = "rr") -> None:
        """Install a session route on every kernel domain.

        ``replicas`` is an ordered sequence of ``(service_name,
        domain_id)`` pairs.  Afterwards ``open_session(name)`` is
        load-balanced across the live replicas by each client's own
        kernel — round-robin by default, or least-loaded by queue
        depth with ``policy="depth"`` (fed by the depth piggyback on
        inter-kernel traffic).  Replicas in peer domains are reached
        over the inter-kernel ``srv_open`` path (whose owner cache is
        pre-seeded here, so the first remote open skips the probe
        walk).  Failover keeps routes correct automatically: dead
        domains are skipped and their cache entries purged.
        Re-registering an existing name replaces the replica set on
        every kernel — how the autoscaler grows and shrinks the tier.
        """
        replicas = tuple(replicas)
        for kernel in self.kernels:
            kernel.router.register(name, replicas, policy=policy)
            for replica, domain in replicas:
                if domain != kernel.kernel_id:
                    kernel.sessions.seed_owner(replica, domain)

    # -- software loading (the kernel's loader hooks) ----------------------------

    def _load_program(self, name: str):
        try:
            return self.programs[name]
        except KeyError:
            # the requester named it: its syscall fails, the kernel
            # carries on
            raise SyscallError(f"no program {name!r} registered") from None

    def _start_software(self, vpe: VpeObject, entry, args: tuple) -> None:
        env = Env(self, vpe.id, vpe.pe)
        # Register the env with the *owning* kernel (spilled VPEs run in
        # a peer domain whose kernel drives their context switches).
        kernel = vpe.kernel
        kernel.envs[vpe.id] = env
        if self.sim.obs is not None:
            # Role label for exports; services refine it when they
            # finish registering (start_m3fs, start_network).
            self.sim.obs.label_node(vpe.pe.node, f"app:{vpe.name}")
        vpe.pe.run(self._wrap(env, entry, args), name=vpe.name)

    def _wrap(self, env: Env, entry, args: tuple):
        """Generator: the VPE's software, then its ``exit`` syscall.  A
        reset of the PE (VPE capability revoked) interrupts it, which
        ends it quietly — not a software crash."""
        result = yield from entry(env, *args)
        yield from env.exit(result)
        return result

    def register_program(self, name: str, entry) -> None:
        """Make ``entry`` loadable via ``VPE.exec`` under ``name``."""
        self.programs[name] = entry

    # -- running applications ---------------------------------------------------------

    def spawn(self, entry, *args, name: str = "app",
              domain: int | None = None) -> VpeObject:
        """Create a root VPE and start ``entry(env, *args)`` on it.

        Used for boot modules and benchmark top-level applications;
        applications themselves use :class:`repro.m3.lib.vpe.VPE`.
        With a partitioned mesh, ``domain`` selects which kernel domain
        hosts the VPE (default: the first).
        """
        kernel = self.kernel if domain is None else self.kernels[domain]

        def create():
            vpe = yield from kernel.create_vpe(name)
            kernel.start_vpe(vpe, entry, args)
            return vpe

        return self.sim.run_process(create(), f"spawn.{name}")

    def wait(self, vpe: VpeObject):
        """Run the simulation until ``vpe`` exits, in whichever domain;
        returns its exit code (``("failed", why)`` if it failed).

        An uncaught exception of any simulated process leaves the run
        where it is raised, so it leaves this call too.  Raises if the
        simulation goes idle without the VPE exiting (a deadlock in the
        simulated software).
        """
        from repro.m3.kernel.vpe import VpeState

        if vpe.state == VpeState.DEAD:
            return vpe.exit_code
        exit_event = self.sim.event(f"{vpe.name}.exit")
        vpe.exit_waiters.append(exit_event.succeed)
        self.sim.run(until_event=exit_event)
        if not exit_event._state:
            raise RuntimeError(
                f"simulation went idle but VPE {vpe.name!r} never exited "
                "(deadlock in simulated software)"
            )
        status, detail = exit_event._value
        return detail if status == "ok" else ("failed", detail)

    def run_app(self, entry, *args, name: str = "app"):
        """Spawn + wait in one call; returns the application's result."""
        return self.wait(self.spawn(entry, *args, name=name))

    # -- benchmark support ---------------------------------------------------

    def fs_preload(self, files: dict, extent_blocks: int | None = None,
                   server=None) -> None:
        """Populate an m3fs instance with ``files`` (path -> bytes)
        outside simulated time — the benchmarks run against an
        already-populated filesystem, exactly like the paper's setups.

        ``extent_blocks`` forces a specific extent granularity, which is
        how the Figure 4 fragmentation sweep controls blocks-per-extent.
        """
        server = server or self.fs_server
        if server is None:
            raise RuntimeError("m3fs is not running")
        fs = server.fs
        region_cap = server.vpe.captable.get(server.region.selector)
        base = region_cap.obj.address
        dram = self.platform.dram.memory
        for path, content in files.items():
            # views of immutable content: DRAM shares the caller's bytes
            view = memoryview(content)
            inode = fs.create_with_parents(path)
            remaining = len(content)
            written = 0
            while remaining > 0:
                want = extent_blocks or fs.append_blocks
                extent = fs.append_extent(inode, want)
                offset, length = fs.extent_region(extent)
                chunk = view[written : written + length]
                dram.write(base + offset, chunk)
                written += len(chunk)
                remaining -= len(chunk)
            fs.truncate(inode, len(content))

    def fs_read_back(self, path: str, server=None) -> bytes:
        """Read a file's content directly out of the DRAM model (for
        verifying benchmark output without simulated cost)."""
        server = server or self.fs_server
        fs = server.fs
        region_cap = server.vpe.captable.get(server.region.selector)
        base = region_cap.obj.address
        dram = self.platform.dram.memory
        inode = fs.resolve(path)
        out = bytearray()
        remaining = inode.size
        for extent in inode.extents:
            offset, length = fs.extent_region(extent)
            take = min(length, remaining)
            out.extend(dram.read(base + offset, take))
            remaining -= take
        return bytes(out)
