"""Failure detection and recovery: the VPE watchdog, the kernel
heartbeat ring, and kernel-domain failover.

:class:`Failover` owns the watchdog and heartbeat processes, their
miss counters and the verdict records, and is the only writer of the
kernel's ``dead_peers`` view.  Recovery orchestrates kernel state
through a back-reference, like the context switcher, and only through
its owners' operations: ``IkTransport.fail_peer`` for RPC state,
``Sessions.fail_peer`` for the registry, ``CapExchange.revoke_where``
for capabilities.
"""

from __future__ import annotations

import typing

from repro import params
from repro.m3.kernel.capability import CapKind
from repro.m3.kernel.objects import (
    RemoteGateStub,
    RemoteServiceRef,
    RemoteVpeObject,
)
from repro.m3.kernel.vpe import VpeObject, VpeState
from repro.obs.slo import last_alert_before
from repro.sim.events import first_of
from repro.sim.ledger import Tag

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.m3.kernel.kernel import Kernel


class Failover:
    """Per-kernel failure detector and recovery orchestrator."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.sim = kernel.sim
        #: peer kernel id -> the set of nodes its domain owns, so
        #: failover knows what to quarantine (see ``Kernel.set_peers``).
        self.peer_domains: dict[int, set] = {}
        #: watchdog state (see :meth:`start_watchdog`).
        self._watchdog = None
        self._watchdog_stop = False
        self.probes_sent = 0
        self.recoveries = 0
        #: heartbeat ring state (see :meth:`start_heartbeat`).
        self._heartbeat = None
        self._heartbeat_stop = False
        self._heartbeat_misses: dict[int, int] = {}
        self.heartbeats_sent = 0
        #: ``(peer, detected_at, completed_at, reason)`` per failover.
        self.failover_log: list[tuple] = []
        #: peer kernel id -> the SLO alert that preceded the death
        #: verdict — ``(alert_cycle, slo name, severity)`` — when an
        #: SLO monitor was watching (see repro.obs.slo); absent peers
        #: had no alert standing.
        self.failover_alerts: dict[int, tuple] = {}

    # -- the VPE watchdog -------------------------------------------------

    def start_watchdog(self, period: int = params.KERNEL_WATCHDOG_PERIOD,
                       probe_timeout: int =
                       params.KERNEL_PROBE_TIMEOUT_CYCLES):
        """Start the liveness watchdog on the kernel PE.

        Every ``period`` cycles the kernel probes the DTU of each
        running, resident VPE (the DTU answers in hardware with the
        core's halted bit, so a dead core cannot suppress the answer).
        A probe that reports "halted" — or that gets no answer within
        ``probe_timeout`` cycles, i.e. the whole node is unreachable —
        tears the VPE down (:meth:`recover_vpe`).
        """
        if self._watchdog is not None and self._watchdog.alive:
            raise RuntimeError("watchdog already running")
        self._watchdog_stop = False
        self._watchdog = self.sim.process(
            self._watchdog_loop(period, probe_timeout), "kernel.watchdog"
        )
        return self._watchdog

    def stop_watchdog(self) -> None:
        """Let the watchdog loop exit at its next wake-up (so a bare
        ``sim.run()`` can drain the event queue)."""
        self._watchdog_stop = True

    def _watchdog_loop(self, period: int, probe_timeout: int):
        kernel = self.kernel
        while True:
            yield self.sim.delay(period)
            if self._watchdog_stop or kernel.pe.failed:
                # The stop flag, or this kernel's own PE died (the
                # watchdog runs as a bare process, so it would otherwise
                # keep probing on behalf of a dead kernel).
                return
            for vpe in list(kernel.vpes.values()):
                if (vpe.state != VpeState.RUNNING or not vpe.resident
                        or vpe.failed or vpe.node == kernel.node):
                    continue
                yield self.sim.delay(params.KERNEL_PROBE_CYCLES, tag=Tag.OS)
                alive = yield from self._probe_vpe(vpe, probe_timeout)
                if not alive:
                    yield from self.recover_vpe(vpe, "watchdog probe failed")

    def _probe_vpe(self, vpe: VpeObject, timeout: int):
        """Generator: probe one VPE's node; returns whether it is alive.

        The probe races against ``timeout`` so an unreachable node
        (partitioned NoC, wedged DTU) is detected too, not only a
        cleanly-reported halted core.
        """
        if self.sim.obs is not None:
            self.sim.obs.instant("probe", "watchdog", vpe.node, vpe=vpe.id)
        self.probes_sent += 1
        probe = self.sim.process(
            self.kernel.dtu.configure_remote(vpe.node, "probe"),
            f"kernel.probe.vpe{vpe.id}",
        )
        yield first_of(self.sim, probe.done, self.sim.delay(timeout))
        return probe.done.triggered and probe.done.ok \
            and probe.done.value == "alive"

    def recover_vpe(self, vpe: VpeObject, reason: str):
        """Generator: tear a failed VPE out of the system.

        The PE's core is gone but its DTU still obeys privileged
        configuration packets, so the kernel (1) wipes the dead node's
        endpoints — NoC-level fencing that stops half-dead software
        state from being reachable, (2) quarantines the PE from
        allocation, (3) fails all VPE_WAIT callers with an error reply
        instead of leaving them blocked forever, and (4) revokes every
        capability the VPE held, which invalidates the endpoints other
        VPEs had configured from its grants.
        """
        kernel = self.kernel
        self.recoveries += 1
        if self.sim.obs is not None:
            self.sim.obs.count("kernel.recoveries")
            self.sim.obs.instant("recover", "watchdog", vpe.node,
                                 vpe=vpe.id, reason=reason)
            if self.sim.obs.flight is not None:
                self.sim.obs.flight.dump(
                    f"kernel{kernel.kernel_id}: watchdog recovers VPE "
                    f"#{vpe.id} ({vpe.name}): {reason}",
                    domain=kernel.kernel_id,
                )
        vpe.failed = True
        yield from kernel.quarantine_pe(vpe.pe)
        error = ("err", f"VPE {vpe.name!r} failed: {reason}")
        for waiter_vpe, slot in vpe.waiters + vpe.yield_waiters:
            kernel.reply(waiter_vpe, slot, error)
        vpe.waiters.clear()
        vpe.yield_waiters.clear()
        for ik_slot in vpe.remote_waiters:
            kernel.ik.reply(ik_slot, error)
        vpe.remote_waiters.clear()
        # DEAD before revoking, so tearing down its own VPE capability
        # does not try to "exit" the corpse a second time.
        kernel.vpe_exited(vpe, ("failed", reason))
        yield from kernel.caps.revoke_where(
            lambda holder, _cap: holder is vpe
        )

    # -- the heartbeat ring -----------------------------------------------

    def start_heartbeat(self, period: int = params.KERNEL_HEARTBEAT_PERIOD,
                        miss_limit: int = params.KERNEL_HEARTBEAT_MISS_LIMIT):
        """Probe the next live kernel in the ring every ``period``
        cycles; ``miss_limit`` consecutive timeout verdicts declare the
        peer dead and trigger failover.  Heartbeats ride the reliable
        inter-kernel RPC layer, so they are only meaningful on reliable
        DTUs — a best-effort probe could never distinguish loss from
        death."""
        label = self.kernel.label
        if not self.kernel.peers:
            raise RuntimeError(f"{label}: no peers to heartbeat")
        if self._heartbeat is not None and not self._heartbeat_stop:
            raise RuntimeError(f"{label}: heartbeat already running")
        self._heartbeat_stop = False
        self._heartbeat_misses = {}
        self._heartbeat = self.sim.process(
            self._heartbeat_loop(period, miss_limit), f"{label}.heartbeat",
        )
        return self._heartbeat

    def stop_heartbeat(self) -> None:
        self._heartbeat_stop = True

    def _ring_successor(self) -> int | None:
        """The next live kernel id after ours, wrapping around — each
        kernel probes exactly one successor, so the ring as a whole
        covers every member with k probes per period."""
        live = self.kernel.ik.live_peers()
        if not live:
            return None
        for peer in live:
            if peer > self.kernel.kernel_id:
                return peer
        return live[0]

    def _heartbeat_loop(self, period: int, miss_limit: int):
        kernel = self.kernel
        while True:
            yield self.sim.delay(period)
            if self._heartbeat_stop or kernel.pe.failed:
                return
            target = self._ring_successor()
            if target is None:
                return
            self.heartbeats_sent += 1
            if self.sim.obs is not None:
                self.sim.obs.count(f"kernel{kernel.kernel_id}.heartbeats")
            self.sim.ledger.charge(Tag.OS, params.KERNEL_PROBE_CYCLES)
            kernel.ik.request(
                target, "heartbeat", (kernel.kernel_id,),
                lambda payload, target=target: self._heartbeat_verdict(
                    target, payload, miss_limit
                ),
                timeout_base=params.KERNEL_HEARTBEAT_RPC_TIMEOUT_CYCLES,
                max_attempts=params.KERNEL_HEARTBEAT_RPC_ATTEMPTS,
            )

    def _heartbeat_verdict(self, target: int, payload, miss_limit: int) -> None:
        if target in self.kernel.dead_peers:
            return
        if payload[0] == "ok":
            self._heartbeat_misses[target] = 0
            return
        misses = self._heartbeat_misses.get(target, 0) + 1
        self._heartbeat_misses[target] = misses
        if self.sim.obs is not None:
            self.sim.obs.count(f"kernel{self.kernel.kernel_id}.heartbeat_misses")
        if misses >= miss_limit:
            self.declare_peer_dead(
                target, f"{misses} consecutive heartbeat timeouts"
            )

    def serve_heartbeat(self, slot, sender, peer_id):
        """Liveness probe from the ring predecessor.  Serving the
        request at all is the proof of life; the payload confirms who
        answered."""
        return ("alive", self.kernel.kernel_id)
        yield  # pragma: no cover

    def serve_peer_down(self, slot, sender, dead_id, reason):
        """A peer announces a third kernel's death so every survivor
        converges on the same membership view without waiting for its
        own heartbeat verdict."""
        if dead_id != self.kernel.kernel_id:
            self.declare_peer_dead(dead_id, reason, announce=False)
        return ()
        yield  # pragma: no cover

    # -- kernel-domain failover -------------------------------------------

    def declare_peer_dead(self, peer: int, reason: str,
                          announce: bool = True) -> None:
        """Commit to the verdict that kernel ``peer`` is gone and spawn
        the failover process that cleans up after it."""
        kernel = self.kernel
        if peer in kernel.dead_peers or peer not in kernel.peers:
            return
        detected = self.sim.now
        kernel.dead_peers.add(peer)
        self._heartbeat_misses.pop(peer, None)
        obs = self.sim.obs
        if obs is not None:
            obs.count(f"kernel{kernel.kernel_id}.peer_deaths")
            details = {}
            if obs.slo_monitors:
                alert = last_alert_before(obs, detected)
                if alert is not None:
                    self.failover_alerts[peer] = alert
                    details = dict(slo=alert[1], slo_severity=alert[2],
                                   slo_cycle=alert[0])
            obs.instant("peer_dead", "ik", kernel.node, peer=peer,
                        reason=reason, **details)
            if obs.flight is not None:
                obs.flight.dump(
                    f"kernel{kernel.kernel_id}: domain {peer} declared "
                    f"dead ({reason})",
                    domain=peer,
                )
        self.sim.process(
            self._fail_over(peer, reason, detected, announce),
            f"{kernel.label}.failover.k{peer}",
        )

    def _fail_over(self, peer: int, reason: str, detected: int,
                   announce: bool):
        """Generator: quarantine a dead kernel domain.  Errs out every
        RPC we still owed it an answer for, answers every local wait
        that was parked on it, fails its PEs so orphaned software stops
        cleanly, revokes capabilities that point into the dead domain,
        and re-points cached service ownership at survivors."""
        kernel = self.kernel
        # 1. RPCs to and from the dead peer: the transport errs the
        # former and drops the latter; the slots it abandoned may still
        # be parked as cross-domain waits on local VPEs.
        for slot in kernel.ik.fail_peer(peer, reason):
            for vpe in kernel.vpes.values():
                if slot in vpe.remote_waiters:
                    vpe.remote_waiters.remove(slot)
        # 2. Sessions negotiated for or held by the dead peer's clients
        # are void, and cached service ownership pointing at it fails
        # over: the next open re-probes the survivors.
        kernel.sessions.fail_peer(peer)
        # 3. Quarantine the dead domain's PEs: fail them so any orphaned
        # software (spilled VPEs we started over there) stops instead of
        # deadlocking the run, and wipe their DTUs where reachable.
        dead_nodes = set(self.peer_domains.get(peer, ()))
        for node in sorted(dead_nodes):
            pe = kernel.platform.pe(node)
            if not pe.failed:
                pe.fail(cause=f"kernel domain {peer} failed")
            yield from kernel.wipe_node(node)
        # 4. Capabilities that point into the dead domain are now
        # dangling: mark proxies of its VPEs dead and revoke the rest
        # (sessions with its services, send gates at its gates, foreign
        # memory in its address space).
        for _holder, cap in kernel.caps.installed():
            obj = cap.obj
            if (cap.kind == CapKind.VPE and isinstance(obj, RemoteVpeObject)
                    and obj.kernel_id == peer and obj.state != VpeState.DEAD):
                obj.state = VpeState.DEAD
                obj.exit_code = ("failed", f"kernel domain {peer} failed")

        def doomed(holder, cap):
            obj = cap.obj
            if holder.state == VpeState.DEAD:
                return False
            if cap.kind == CapKind.SESSION:
                return (isinstance(obj.service, RemoteServiceRef)
                        and obj.service.kernel_id == peer)
            if cap.kind == CapKind.SEND:
                return (isinstance(obj.target, RemoteGateStub)
                        and obj.target.node in dead_nodes)
            return (cap.kind == CapKind.MEM and cap.foreign
                    and obj.node in dead_nodes)

        yield from kernel.caps.revoke_where(doomed)
        # 5. Tell the other survivors (idempotent: declare_peer_dead
        # no-ops on kernels that already know).
        if announce:
            for other in kernel.ik.live_peers():
                kernel.ik.request(
                    other, "peer_down", (peer, reason),
                    lambda payload: None,
                )
        self.failover_log.append((peer, detected, self.sim.now, reason))
        if self.sim.obs is not None:
            self.sim.obs.instant(
                "failover_done", "ik", kernel.node, peer=peer,
                cycles=self.sim.now - detected,
            )
