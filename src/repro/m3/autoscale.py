"""Autoscaler: closing the loop from load to placement.

The paper's elasticity claim (Section 1) is that a kernel which holds
*all* VPE state remotely — SPM image, DTU endpoint registers,
capabilities — can re-materialize compute anywhere.  PR 6 built the
mechanism (checkpoint/restore, live ``migrate_vpe``); cross-domain
migration extends it over the idempotent inter-kernel RPC.  This
module adds the *policy*: a kernel-side controller that watches the
session router's queue-depth telemetry each epoch and grows or shrinks
a replicated service tier.

Scale-up is **warm-booted**: the new replica is cloned from a
checkpoint of the busiest live replica (gem5-style snapshot boot — the
clone starts with the donor's store image instead of refilling from
cold), spawned next to the donor, then live **cross-domain migrated**
into the underloaded domain before it registers its service — so its
receive gate, session state, and capabilities are created under the
kernel it will actually live with.

Scale-down drains the newest replica: it is removed from every
kernel's route first (no new sessions arrive), the controller waits
for its in-flight work to finish, hands its store off to the
longest-lived survivor (a timed DTU transfer), and retires the VPE.

Everything runs in-sim and is deterministic: decisions depend only on
sampled simulator state, never on wall-clock or randomness.
"""

from __future__ import annotations

import typing

from repro import params
from repro.sim.events import first_of
from repro.sim.ledger import Tag

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.m3.services.kvserv import KvServ
    from repro.m3.system import M3System


class AutoScaler:
    """Epoch-driven controller for one routed service tier.

    ``servers`` are the initially-booted :class:`KvServ` replicas (in
    route order).  Every ``epoch`` cycles the controller samples each
    routed replica's queue depth (service inbox occupancy plus session
    negotiations in flight — the same signal the ``"depth"`` routing
    policy balances on) and acts:

    - **up**: any replica's depth at/above ``up_depth`` (and a domain
      without a replica has a free PE) → warm-boot a clone of the
      busiest replica into that domain.
    - **down**: the tier's *total* depth at/most ``down_total`` for
      ``calm_epochs`` consecutive epochs → drain and retire the newest
      replica, merging its store into the oldest survivor.

    ``min_replicas``/``max_replicas`` bound the tier;
    ``cooldown_epochs`` quiets the controller after each action so one
    burst cannot trigger a scale-up stampede.
    """

    def __init__(self, system: "M3System", servers, name: str = "kv",
                 epoch: int = params.AUTOSCALE_EPOCH_CYCLES,
                 up_depth: int = 8, down_total: int = 1,
                 calm_epochs: int = 3, cooldown_epochs: int = 2,
                 min_replicas: int | None = None,
                 max_replicas: int | None = None,
                 drain_patience: int = 6):
        self.system = system
        self.sim = system.sim
        self.name = name
        #: live replicas by concrete service name.
        self.servers: dict[str, "KvServ"] = {
            server.service_name: server for server in servers
        }
        self.epoch = epoch
        self.up_depth = up_depth
        self.down_total = down_total
        self.calm_epochs = calm_epochs
        self.cooldown_epochs = cooldown_epochs
        self.min_replicas = (
            min_replicas if min_replicas is not None else len(servers)
        )
        self.max_replicas = (
            max_replicas if max_replicas is not None
            else len(system.kernels)
        )
        self.drain_patience = drain_patience
        #: next clone index; initial replicas are ``{name}0..{name}k``.
        self._next_index = len(servers)
        #: ``(cycle, action, replica, domain, detail)`` per action.
        self.events: list[tuple] = []
        #: retired replicas by name (their counters outlive the VPE).
        self.retired: dict[str, "KvServ"] = {}
        self.epochs = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self._calm = 0
        self._cooldown = 0
        self._stop_event = self.sim.event(f"autoscale.{name}.stop")
        self.process = None

    # -- lifecycle -----------------------------------------------------

    def start(self):
        """Start the epoch loop as a control-plane process."""
        if self.process is not None and self.process.alive:
            raise RuntimeError("autoscaler already running")
        self.process = self.sim.process(
            self._loop(), f"autoscale.{self.name}"
        )
        return self.process

    def stop(self) -> None:
        """Let the loop exit at its next wake-up, so a bare
        ``sim.run()`` can drain the event queue."""
        if not self._stop_event.triggered:
            self._stop_event.succeed(None)

    # -- telemetry -----------------------------------------------------

    def _route(self) -> tuple:
        """The current replica route ``((service_name, domain), ...)``."""
        return self.system.kernels[0].router.service_routes.get(self.name, ())

    def _depths(self) -> dict:
        """Queue depth per routed replica, sampled at the owning
        kernel (the authoritative copy of the gossiped telemetry)."""
        kernels = self.system.kernels
        return {replica: kernels[owner].sessions.depth(replica)
                for replica, owner in self._route()}

    # -- the epoch loop ------------------------------------------------

    def _loop(self):
        while True:
            yield first_of(
                self.sim, self._stop_event, self.sim.delay(self.epoch)
            )
            if self._stop_event.triggered:
                return
            self.epochs += 1
            self.sim.ledger.charge(Tag.OS, params.AUTOSCALE_SAMPLE_CYCLES)
            depths = self._depths()
            if self._cooldown > 0:
                self._cooldown -= 1
                continue
            total = sum(depths.values())
            peak = max(depths.values(), default=0)
            if peak >= self.up_depth and len(depths) < self.max_replicas:
                grown = yield from self._scale_up(depths)
                if grown:
                    self._calm = 0
                    self._cooldown = self.cooldown_epochs
                continue
            if total <= self.down_total and len(depths) > self.min_replicas:
                self._calm += 1
                if self._calm >= self.calm_epochs:
                    yield from self._scale_down()
                    self._calm = 0
                    self._cooldown = self.cooldown_epochs
            else:
                self._calm = 0

    # -- scale up ------------------------------------------------------

    def _pick_target_domain(self) -> int | None:
        """The lowest-id kernel domain without a replica that has a
        free application PE."""
        occupied = {owner for _replica, owner in self._route()}
        for domain, kernel in enumerate(self.system.kernels):
            if domain in occupied:
                continue
            pe = kernel.platform.find_free_pe(nodes=kernel.domain)
            if pe is not None and pe.node != kernel.node:
                return domain
        return None

    def _scale_up(self, depths: dict):
        """Generator: warm-boot a clone of the busiest replica into an
        underloaded domain.  Returns whether the tier grew."""
        from repro.m3.kernel.kernel import SyscallError
        from repro.m3.services.kvserv import KvServ

        target_domain = self._pick_target_domain()
        if target_domain is None:
            return False
        route = self._route()
        # Busiest replica donates its state (deterministic tiebreak on
        # the name so equal depths cannot depend on dict order).
        source_name = max(sorted(depths), key=lambda r: depths[r])
        source = self.servers[source_name]
        source_domain = dict(route)[source_name]
        source_kernel = self.system.kernels[source_domain]
        # Warm boot (gem5-style): snapshot the donor — the timed
        # checkpoint transfer *is* the snapshot cost — and seed the
        # clone from its image instead of starting cold.
        yield from source_kernel.migration.checkpoint_vpe(source.vpe)
        clone = KvServ(service_name=f"{self.name}{self._next_index}",
                       op_cycles=source.request_cycles)
        self._next_index += 1
        clone.store = dict(source.store)
        clone.bytes_stored = source.bytes_stored
        clone.ready = self.sim.event(f"{clone.service_name}.ready")
        clone.staged = self.sim.event(f"{clone.service_name}.staged")
        clone.hold = self.sim.event(f"{clone.service_name}.hold")
        detail = f"warm from {source_name}"
        try:
            # Spawn next to the donor, park it staged, then live
            # cross-domain migrate it — its service registration then
            # happens under the target kernel.
            vpe = yield from source_kernel.create_vpe(clone.service_name)
        except SyscallError:
            vpe = None
        target_kernel = self.system.kernels[target_domain]
        if vpe is not None:
            source_kernel.start_vpe(vpe, clone.main, ())
            yield clone.staged
            try:
                new_id, _node = yield from \
                    source_kernel.migration.migrate_vpe_cross(
                        vpe, target_domain
                    )
            except SyscallError:
                # No room after all (lost a race for the target PE):
                # release the staged clone and give up this epoch.
                occupant = vpe.pe.occupant
                if occupant is not None and occupant.alive:
                    occupant.interrupt("scale-up-aborted")
                source_kernel.vpe_exited(vpe, None)
                return False
            vpe = target_kernel.vpes[new_id]
        else:
            # The donor's domain is full: boot the clone directly in
            # the target domain (still warm — it keeps the seeded
            # store image).
            detail = f"warm from {source_name} (direct)"
            try:
                vpe = yield from target_kernel.create_vpe(clone.service_name)
            except SyscallError:
                return False
            target_kernel.start_vpe(vpe, clone.main, ())
            yield clone.staged
        clone.vpe = vpe
        clone.hold.succeed(None)
        yield clone.ready
        self.servers[clone.service_name] = clone
        self.system.register_service_route(
            self.name,
            route + ((clone.service_name, target_domain),),
            policy="depth",
        )
        self.scale_ups += 1
        self.events.append((
            self.sim.now, "scale_up", clone.service_name, target_domain,
            detail,
        ))
        if self.sim.obs is not None:
            self.sim.obs.count("autoscale.scale_ups")
            self.sim.obs.instant("scale_up", "autoscale", vpe.node,
                                 replica=clone.service_name,
                                 domain=target_domain)
            # A clone is not started through start_service: its totals
            # are sampled from here, before the route brings it work.
            self.sim.obs.monitor(clone.observed_totals(), clone)
        return True

    # -- scale down ----------------------------------------------------

    def _scale_down(self):
        """Generator: drain and retire the newest replica, merging its
        store into the oldest survivor."""
        route = self._route()
        victim_name, victim_domain = route[-1]
        survivors = tuple(
            entry for entry in route if entry[0] != victim_name
        )
        victim = self.servers[victim_name]
        kernel = self.system.kernels[victim_domain]
        # Out of the route first: no kernel dispatches new sessions to
        # the victim while it drains.
        self.system.register_service_route(
            self.name, survivors, policy="depth"
        )
        drained = False
        for _ in range(self.drain_patience):
            if not victim.sessions and kernel.sessions.depth(victim_name) == 0:
                drained = True
                break
            yield self.sim.delay(self.epoch)
        if not drained:
            # Clients still hold sessions after the patience window:
            # retiring now would strand them.  Put the replica back and
            # let a later calm stretch retry the drain.
            self.system.register_service_route(
                self.name, route, policy="depth"
            )
            self.events.append((
                self.sim.now, "scale_down_aborted", victim_name,
                victim_domain, f"{len(victim.sessions)} sessions undrained",
            ))
            return
        # Hand the store off to the oldest survivor — the sessions'
        # state cross-domain-migrates even though the VPE retires (a
        # timed DTU transfer, like the checkpoint image).
        survivor = self.servers[survivors[0][0]]
        moved = 0
        for key, value in victim.store.items():
            if key not in survivor.store:
                survivor.store[key] = value
                survivor.bytes_stored += len(value)
                moved += len(value)
        yield self.sim.delay(
            max(1, victim.bytes_stored // params.DTU_BYTES_PER_CYCLE)
            + params.DRAM_ACCESS_CYCLES,
            tag=Tag.XFER,
        )
        vpe = victim.vpe
        kernel.reset_vpe(vpe, "scaled-down", exit_code=0)
        del self.servers[victim_name]
        self.retired[victim_name] = victim
        self.scale_downs += 1
        self.events.append((
            self.sim.now, "scale_down", victim_name, victim_domain,
            f"{moved}B merged into {survivor.service_name}",
        ))
        if self.sim.obs is not None:
            self.sim.obs.count("autoscale.scale_downs")
            self.sim.obs.instant("scale_down", "autoscale", vpe.node,
                                 replica=victim_name, domain=victim_domain)
