"""Moving VPEs: checkpoint/restore and live migration within and
across kernel domains.

:class:`Migration` owns the migration counters and the forwarding
table of VPEs this kernel pushed out to a peer domain (the snapshot
formats are in :mod:`repro.m3.kernel.checkpoint`).  Moving a VPE
rewires kernel state, so it holds a kernel back-reference like the
context switcher.
"""

from __future__ import annotations

import dataclasses
import typing

from repro import params
from repro.dtu.registers import EndpointKind, MemoryPerm
from repro.hw.dram import bulk_copy_cycles
from repro.m3.kernel.capability import Capability, CapKind
from repro.m3.kernel.checkpoint import MigrationDescriptor, VpeCheckpoint
from repro.m3.kernel.objects import MemObject, RemoteVpeObject
from repro.m3.kernel.syscalls import NO_REPLY, SyscallError
from repro.m3.kernel.vpe import VpeObject, VpeState
from repro.sim.ledger import Tag

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.m3.kernel.kernel import Kernel


def _live_endpoints(dtu) -> tuple:
    """``(index, EndpointRegisters)`` clones of every configured
    endpoint, so later register mutation cannot leak into the copy."""
    return tuple(
        (index, dataclasses.replace(ep))
        for index, ep in enumerate(dtu.eps)
        if ep.kind != EndpointKind.INVALID
    )


class Migration:
    """Per-kernel VPE mover."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.sim = kernel.sim
        #: live migrations within this domain.
        self.migrations = 0
        #: cross-domain bookkeeping: local VPE id -> (new owner kernel
        #: id, id over there) for VPEs this kernel pushed out.  Stale
        #: inter-kernel requests naming the old id are forwarded to the
        #: new owner (the proxy swaps direction).
        self.migrated_out: dict[int, tuple] = {}
        self.migrations_out = 0
        self.migrations_in = 0

    # -- checkpoint / restore ---------------------------------------------

    def checkpoint_vpe(self, vpe: VpeObject):
        """Generator: snapshot a resident VPE's PE-local state.

        Captures the data-SPM image (a timed, size-dependent transfer),
        the DTU endpoint registers and the SPM allocator mark into a
        :class:`VpeCheckpoint` (the capabilities themselves stay
        kernel-owned).
        """
        if not vpe.resident:
            raise SyscallError(f"VPE {vpe.name!r} is not resident")
        pe = vpe.pe
        yield self.sim.delay(params.VPE_CHECKPOINT_KERNEL_CYCLES, tag=Tag.OS)
        yield self.sim.delay(bulk_copy_cycles(pe.spm_data.size), tag=Tag.XFER)
        checkpoint = VpeCheckpoint(
            vpe_id=vpe.id,
            name=vpe.name,
            node=pe.node,
            spm_image=bytes(pe.spm_data.read(0, pe.spm_data.size)),
            alloc_mark=pe.alloc_mark,
            eps=_live_endpoints(pe.dtu),
        )
        if self.sim.obs is not None:
            self.sim.obs.count("kernel.checkpoints")
            self.sim.obs.instant("checkpoint", "migrate", pe.node,
                                 vpe=vpe.id, bytes=pe.spm_data.size)
        return checkpoint

    def restore_vpe(self, checkpoint, target_pe, vpe: VpeObject):
        """Generator: re-materialize a checkpointed, *live* VPE on
        ``target_pe`` (live migration).

        The SPM image and endpoint registers are restored at the same
        indices (client-side gate bindings cache endpoint indices, so
        they stay valid), receive ringbuffers move over with their
        unread messages, and the old DTU forwards in-flight messages
        and replies to the new node for a redirect window before the
        kernel wipes it.  Safe for VPEs that are computing or parked in
        any libm3 receive (``RecvGate.receive`` re-reads ``env.dtu``);
        only code calling the old DTU's ``wait_message`` directly — a
        device, never VPE software — is not migratable (see
        docs/protocols.md).
        """
        kernel = self.kernel
        old_pe = vpe.pe
        old_dtu = old_pe.dtu
        old_node = old_pe.node
        if not target_pe.busy:
            target_pe.reserve()
        yield self.sim.delay(params.VPE_CHECKPOINT_KERNEL_CYCLES, tag=Tag.OS)
        yield self.sim.delay(bulk_copy_cycles(target_pe.spm_data.size),
                             tag=Tag.XFER)
        target_pe.spm_data.write(0, checkpoint.spm_image)
        target_pe.alloc_mark = checkpoint.alloc_mark
        if not old_pe.failed:
            # Final sync pass (classic pre-copy migration): the VPE kept
            # running during the bulk copy above, so the authoritative
            # SPM image, allocator mark, and endpoint registers are
            # re-read at hand-off time.  The bulk transfer already paid
            # the size-dependent cost; the dirty delta is not modelled.
            target_pe.spm_data.write(
                0, bytes(old_pe.spm_data.read(0, old_pe.spm_data.size))
            )
            target_pe.alloc_mark = old_pe.alloc_mark
            eps = _live_endpoints(old_dtu)
        else:
            eps = checkpoint.eps
        for index, registers in eps:
            yield from kernel.dtu.configure_remote(
                target_pe.node, "configure", index,
                dataclasses.replace(registers),
            )
        # The software process itself just keeps running; only the PE
        # binding moves.  The old PE stays reserved until the redirect
        # window closes, so nobody is placed onto its half-dead state.
        occupant = old_pe.occupant
        old_pe.occupant = None
        old_pe.reserved = True
        if occupant is not None and occupant.alive:
            target_pe.occupant = occupant
            target_pe.reserved = False
        vpe.pe = target_pe
        vpe.migrations += 1
        if kernel.ctxsw.resident.get(old_node) is vpe:
            kernel.ctxsw.resident[old_node] = None
            kernel.ctxsw.adopt_node(target_pe)
            kernel.ctxsw.resident[target_pe.node] = vpe
        env = kernel.envs.get(vpe.id)
        if env is not None:
            env.pe = target_pe
            env.dtu = target_pe.dtu
        # Hardware state hand-off: the ringbuffers move, and anything
        # blocked on an old-DTU signal wakes spuriously to re-check
        # against the new DTU (libm3's receive loop re-reads env.dtu).
        old_dtu.hand_off(target_pe.dtu)
        old_dtu.redirect_to = target_pe.node
        if self.sim.obs is not None:
            self.sim.obs.instant("migrate", "migrate", old_node,
                                 vpe=vpe.id, target=target_pe.node)
        self.migrations += 1

        def close_window():
            yield self.sim.delay(params.DTU_REDIRECT_WINDOW_CYCLES)
            old_dtu.redirect_to = None
            yield from kernel.wipe_node(old_node)
            if not old_pe.failed:
                old_pe.release()

        self.sim.process(
            close_window(), f"{kernel.label}.migrate-window.v{vpe.id}"
        )

    # -- live migration ---------------------------------------------------

    def sys_migrate_vpe(self, vpe, slot, vpe_sel, target_domain=None):
        """Live-migrate a running, resident child VPE (checkpoint +
        restore + DTU redirect window); returns the node it now runs
        on.  With ``target_domain`` naming a peer kernel, the
        checkpoint instead serializes over the idempotent inter-kernel
        RPC (``migrate_in``) and the child re-materializes in that
        domain, leaving a :class:`RemoteVpeObject` proxy behind."""
        kernel = self.kernel
        child = vpe.captable.get(vpe_sel, CapKind.VPE).obj
        self._require_live(child)
        if target_domain is not None and target_domain != kernel.kernel_id:
            yield from self._migrate_out(
                target_domain, child,
                lambda payload: kernel.reply(vpe, slot, payload),
            )
            return NO_REPLY
        target = kernel.find_free_pe()
        if target is None:
            raise SyscallError("no free PE to migrate to")
        target.reserve()
        completed = False
        try:
            checkpoint = yield from self.checkpoint_vpe(child)
            if not child.resident or child.state != VpeState.RUNNING:
                raise SyscallError(
                    f"VPE {child.name!r} died during checkpoint"
                )
            yield from self.restore_vpe(checkpoint, target, child)
            completed = True
        finally:
            # A mid-migration failure (fault plan killing the source,
            # the child exiting under the checkpoint) must not strand
            # the target PE reserved forever.  Once restore_vpe ran,
            # the target is the child's live PE — leave it alone.
            if not completed and target.reserved and target.occupant is None:
                target.release()
        return target.node

    @staticmethod
    def _require_live(child) -> None:
        if isinstance(child, RemoteVpeObject):
            raise SyscallError("cannot live-migrate a remote VPE")
        if not child.resident or child.state != VpeState.RUNNING:
            raise SyscallError(
                f"VPE {child.name!r} is not resident and running"
            )

    def _migrate_out(self, peer: int, child: VpeObject, completion):
        """Generator: checkpoint ``child`` and ship the snapshot, wrapped
        in a :class:`MigrationDescriptor`, to ``peer`` over the
        idempotent RPC; ``completion`` runs with ``("ok", (new_id,
        new_node))`` or an error payload after source-side bookkeeping
        finished."""
        checkpoint = yield from self.checkpoint_vpe(child)
        descriptor = MigrationDescriptor.capture(
            child, checkpoint, self.kernel.envs.get(child.id)
        )
        if peer not in self.kernel.peers:
            self.sim.call_soon(lambda _: completion(
                ("err", f"no peer kernel domain {peer}")
            ))
            return
        self.kernel.ik.request(
            peer, "migrate_in", (descriptor,),
            lambda payload: completion(
                self._complete_migrate_out(child, peer, payload)
            ),
        )

    def _complete_migrate_out(self, child: VpeObject, peer: int, payload):
        """Source-side hand-off once the target kernel answered a
        ``migrate_in``: drop ownership, leave a proxy pointing the
        other way, and forward parked waits to the new owner."""
        kernel = self.kernel
        if payload[0] != "ok":
            return payload
        new_id, new_node = payload[1]
        old_id = child.id
        kernel.vpes.pop(old_id, None)
        kernel.envs.pop(old_id, None)
        if kernel.ctxsw.resident.get(child.node) is child:
            kernel.ctxsw.resident[child.node] = None
        self.migrated_out[old_id] = (peer, new_id)
        proxy = RemoteVpeObject(remote_id=new_id, kernel_id=peer,
                                name=child.name, node=new_node)
        proxy.state = VpeState.RUNNING
        # Every local VPE capability naming the child now names the
        # proxy: the relationship swapped direction — the VPE used to
        # be ours, now we hold it remotely.
        for _holder, cap in kernel.caps.installed():
            if cap.kind == CapKind.VPE and cap.obj is child:
                cap.obj = proxy
        # Every wait parked here (local, yielding, a third domain's, a
        # boot-level join) follows the VPE as a cross-domain wait at the
        # new owner; the verdict passes straight through to its answer.
        for answer in child.exit_waiters:
            kernel.wait_remote(proxy, answer)
        child.exit_waiters = []
        if self.sim.obs is not None:
            self.sim.obs.instant("migrate_out", "migrate", child.node,
                                 vpe=old_id, peer=peer, target=new_node)
        self.migrations_out += 1
        return ("ok", (new_id, new_node))

    def migrate_vpe_cross(self, child: VpeObject, peer: int):
        """Generator (control-plane processes only — never the kernel
        loop): live-migrate ``child`` into peer domain ``peer`` and
        return ``(new_id, new_node)``.  The autoscaler and tests drive
        cross-domain migration through this entry point."""
        kernel = self.kernel
        if peer == kernel.kernel_id or peer not in kernel.peers:
            raise SyscallError(f"no peer kernel domain {peer}")
        self._require_live(child)
        done = self.sim.event(f"{kernel.label}.migrate-out.v{child.id}")
        yield from self._migrate_out(peer, child, done.succeed)
        payload = yield done
        if payload[0] != "ok":
            raise SyscallError(payload[1])
        return payload[1]

    def forward(self, vpe_id: int, slot: int, operation: str, args: tuple):
        """A peer request names a VPE that is not (or no longer) in
        this domain: forward it to the new owner of one this kernel
        migrated out — the eventual verdict passes straight through to
        the original asker — or refuse it."""
        forwarded = self.migrated_out.get(vpe_id)
        if forwarded is None:
            raise SyscallError(f"no VPE {vpe_id} in this domain")
        peer, new_id = forwarded
        ik = self.kernel.ik
        ik.request(
            peer, operation, (new_id,) + tuple(args),
            lambda payload: ik.reply(slot, payload),
            no_timeout=(operation == "vpe_wait"),
        )
        return NO_REPLY

    def serve_migrate_in(self, slot, sender, descriptor):
        """Host a VPE live-migrating in from a peer kernel's domain.

        The descriptor re-materializes on a free local PE: the SPM
        image and endpoint registers restore through the ordinary
        :meth:`restore_vpe` path (whose DTU redirect window now spans
        domains — the source DTU forwards in-flight traffic across the
        boundary until the window closes), the capability manifest
        rebuilds memory grants that stayed behind as foreign-flagged
        caps, and the syscall endpoint is rewired to *this* kernel with
        a locally-minted unforgeable id.  Duplicate deliveries (a
        retried RPC after a dropped reply) are absorbed by the
        transport's dedup before this handler runs, so the restore
        executes exactly once.
        """
        kernel = self.kernel
        target = kernel.find_free_pe()
        if target is None:
            raise SyscallError(
                f"no free PE in kernel domain {kernel.kernel_id} to host a "
                f"migrating VPE"
            )
        checkpoint = descriptor.checkpoint
        source_pe = kernel.platform.pe(checkpoint.node)
        vpe = kernel.new_vpe(checkpoint.name, source_pe)
        vpe.state = VpeState.RUNNING
        vpe.migrations = descriptor.migrations
        for selector, kind_value, detail in descriptor.caps:
            kind = CapKind(kind_value)
            if kind == CapKind.VPE and detail is None:
                vpe.captable.insert(Capability(CapKind.VPE, vpe), selector)
            elif kind == CapKind.MEM and detail is not None:
                node, address, size, perm_value, was_foreign = detail
                # The VPE's own SPM grant follows it to the new PE.
                # Other memory is in (or was delegated through) another
                # domain: still reachable over the NoC, but never owned
                # here — teardown must not free it locally.
                own_spm = (node == checkpoint.node and address == 0
                           and not was_foreign)
                vpe.captable.insert(Capability(
                    CapKind.MEM,
                    MemObject(target.node if own_spm else node, address,
                              size, MemoryPerm(perm_value)),
                    foreign=not own_spm,
                ), selector)
            # Session/gate capabilities do not survive the crossing:
            # their kernel-side state lives with the source domain
            # (documented limitation — services reconnect after moving).
        env = descriptor.env
        if env is not None:
            env.vpe_id = vpe.id
            kernel.envs[vpe.id] = env
        yield from self.restore_vpe(checkpoint, target, vpe)
        if kernel.ctxsw.resident.get(target.node) is None:
            kernel.ctxsw.adopt(vpe)
        # The syscall channel now belongs to this kernel: same endpoint
        # index (client-side bindings stay valid), new target node, and
        # the id minted here — unforgeable, exactly like at boot.
        yield from kernel.wire_syscall_ep(vpe)
        if self.sim.obs is not None:
            self.sim.obs.instant("migrate_in", "migrate", target.node,
                                 vpe=vpe.id, peer=sender,
                                 source=checkpoint.node)
        self.migrations_in += 1
        return (vpe.id, target.node)
