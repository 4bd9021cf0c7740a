"""Capability exchange: everything that changes who may name what.

"Capabilities can be exchanged between VPEs" by delegate and obtain,
and revoked recursively along the tree that records those operations
(Section 4.5.3); a capability only *does* something once it is
activated on an endpoint (Section 4.5.4).  :class:`CapExchange` owns
the record of which capability is configured on which endpoint, so
that revocation cuts the hardware behind a grant and not only the
bookkeeping.  Built from what it uses, not from a ``Kernel``.
"""

from __future__ import annotations

import types
import typing

from repro.dtu.registers import EndpointRegisters, MemoryPerm
from repro.m3.kernel import capability
from repro.m3.kernel.capability import Capability, CapKind
from repro.m3.kernel.objects import MemObject, RemoteClientRef, RemoteVpeObject
from repro.m3.kernel.syscalls import NO_REPLY, SyscallError
from repro.m3.kernel.vpe import VpeState


class CapExchange:
    """Activation, delegation and revocation over the VPEs' tables."""

    def __init__(self, sim, dtu, ik, vpes: typing.Mapping, memory,
                 dram_node: int, reply, reset_vpe):
        self.sim = sim
        #: the kernel's privileged DTU, which configures everyone else's.
        self.dtu = dtu
        #: the RPC transport, for grants that cross a domain boundary.
        self.ik = ik
        #: shared view: VPE id -> the kernel's VPE objects, whose
        #: capability tables this component edits.
        self.vpes = vpes
        #: the DRAM allocator revoked root regions return to.
        self.memory = memory
        self.dram_node = dram_node
        #: ``reply(vpe, slot, payload)``: the late answer to a syscall
        #: parked here.
        self.reply = reply
        #: ``reset_vpe(vpe)``: what revoking a VPE capability does.
        self.reset_vpe = reset_vpe
        #: (vpe id, ep index) -> capability currently configured there;
        #: ``bindings`` is its read-only view.
        self._bindings: dict[tuple, Capability] = {}
        self.bindings = types.MappingProxyType(self._bindings)

    def installed(self):
        """Every installed capability as ``(holder, cap)``, tables in
        VPE-id order; ``cap.parent`` and ``cap.foreign`` make it the
        whole derivation forest."""
        for vpe_id in sorted(self.vpes):
            vpe = self.vpes[vpe_id]
            for cap in vpe.captable.caps():
                yield vpe, cap

    # -- activation -------------------------------------------------------

    def activate(self, vpe, slot, ep_index, cap_sel):
        if not (0 <= ep_index < len(vpe.pe.dtu.eps)):
            raise SyscallError(f"endpoint {ep_index} out of range")
        if cap_sel < 0:
            yield from self.dtu.configure_remote(vpe.node, "invalidate", ep_index)
            return ()
        cap = vpe.captable.get(cap_sel)
        if cap.kind == CapKind.RECV:
            if cap.obj.owner is not None and cap.obj.owner is not vpe:
                raise SyscallError(
                    "an active receive gate cannot move to another VPE"
                )
            cap.obj.owner = vpe
        elif cap.kind == CapKind.SEND and not cap.obj.target.active:
            # Defer until the receiver is ready (Section 4.5.4).
            cap.obj.target.pending_activations.append(
                (vpe, slot, ep_index, cap)
            )
            return NO_REPLY
        yield from self.dtu.configure_remote(
            vpe.node, "configure", ep_index, self._registers_for(cap)
        )
        self._bind(vpe, ep_index, cap)
        if cap.kind == CapKind.RECV:
            rgate = cap.obj
            rgate.ep_index = ep_index
            deferred, rgate.pending_activations = rgate.pending_activations, []
            for waiter in deferred:
                self.sim.process(self._activate_deferred(*waiter),
                                 "kernel.deferred-activate")
        return ()

    def _activate_deferred(self, vpe, slot, ep_index, cap):
        """Generator: a send-gate activation that waited for its
        receive gate completes."""
        yield from self.dtu.configure_remote(
            vpe.node, "configure", ep_index, self._registers_for(cap)
        )
        self._bind(vpe, ep_index, cap)
        self.reply(vpe, slot, ("ok", ()))

    def _bind(self, vpe, ep_index: int, cap: Capability) -> None:
        """Record that ``cap`` now occupies (vpe, ep); unbind the previous
        occupant so revocation only invalidates live configurations."""
        key = (vpe.id, ep_index)
        previous = self._bindings.get(key)
        if previous is not None:
            previous.bound_eps.discard(key)
        self._bindings[key] = cap
        cap.bound_eps.add(key)

    def unbind_vpe(self, vpe) -> None:
        """Nothing of ``vpe`` is configured in hardware any more (it was
        switched out): retire its binding records."""
        for key in [key for key in self._bindings if key[0] == vpe.id]:
            self._bindings.pop(key).bound_eps.discard(key)

    def _registers_for(self, cap: Capability) -> EndpointRegisters:
        obj = cap.obj
        if cap.kind == CapKind.SEND:
            if obj.target.ep_index is None:
                raise SyscallError("target receive gate is not activated")
            return EndpointRegisters.send_config(
                target_node=obj.target.node,
                target_ep=obj.target.ep_index,
                label=obj.label,
                credits=obj.credits,
                msg_size=obj.target.slot_size,
            )
        if cap.kind == CapKind.RECV:
            return EndpointRegisters.receive_config(
                buffer_addr=0,
                slot_size=obj.slot_size,
                slot_count=obj.slot_count,
            )
        if cap.kind == CapKind.MEM:
            return EndpointRegisters.memory_config(
                obj.node, obj.address, obj.size, obj.perm
            )
        raise SyscallError(f"cannot activate a {cap.kind.value} capability")

    # -- delegation -------------------------------------------------------

    def delegate(self, vpe, slot, vpe_sel, src_sel):
        target = vpe.captable.get(vpe_sel, CapKind.VPE).obj
        source_cap = vpe.captable.get(src_sel)
        if isinstance(target, RemoteVpeObject):
            if source_cap.kind != CapKind.MEM:
                raise SyscallError(
                    "only memory capabilities can be delegated across "
                    "kernel domains"
                )
            return self._delegate_remote(vpe, slot, target.kernel_id,
                                         target.remote_id, source_cap.obj)
        if source_cap.kind == CapKind.RECV and source_cap.obj.active:
            # "the kernel only allows to delegate/obtain send and memory
            # capabilities, but not receive capabilities" once active
            # (Section 4.5.4); inactive receive gates are still movable.
            raise SyscallError("active receive capabilities cannot be delegated")
        return target.captable.insert(source_cap.derive())
        yield  # pragma: no cover

    def srv_delegate(self, vpe, slot, service_sel, session_id,
                     src_mem_sel, offset, size, perm_value):
        service = vpe.captable.get(service_sel, CapKind.SERVICE).obj
        client = service.sessions.get(session_id)
        if client is None:
            raise SyscallError(f"no session {session_id} at {service.name!r}")
        source_cap = vpe.captable.get(src_mem_sel, CapKind.MEM)
        derived = source_cap.obj.slice(offset, size, MemoryPerm(perm_value))
        if isinstance(client, RemoteClientRef):
            return self._delegate_remote(vpe, slot, client.kernel_id,
                                         client.vpe_id, derived)
        return client.captable.insert(source_cap.derive(derived))
        yield  # pragma: no cover

    def _delegate_remote(self, vpe, slot, peer: int, remote_vpe: int,
                         region: MemObject):
        """Hand a memory region to a VPE in a peer domain: forward the
        region's descriptor; the peer installs a foreign cap and its
        answer (the selector over there) is the syscall's reply."""
        self.ik.request(
            peer, "delegate_mem",
            (remote_vpe, region.node, region.address, region.size,
             region.perm.value),
            lambda payload: self.reply(vpe, slot, payload),
        )
        return NO_REPLY

    def serve_delegate_mem(self, slot, sender, vpe_id, node, address, size,
                           perm_value):
        """Install a memory capability delegated from a peer domain.
        The cap is marked foreign: revoking it must not free the region
        into this kernel's allocator."""
        vpe = self.vpes.get(vpe_id)
        if vpe is None or vpe.state == VpeState.DEAD:
            raise SyscallError(f"no live VPE {vpe_id} in this domain")
        region = MemObject(node, address, size, MemoryPerm(perm_value))
        return vpe.captable.insert(
            Capability(CapKind.MEM, region, foreign=True)
        )
        yield  # pragma: no cover

    # -- revocation -------------------------------------------------------

    def revoke(self, vpe, slot, src_sel):
        return (yield from self._revoke(vpe.captable.get(src_sel)))

    def revoke_where(self, doomed):
        """Generator: revoke every installed capability for which
        ``doomed(holder, cap)`` holds — subtree and all — and undo what
        was configured from each victim."""
        for holder, cap in self.installed():
            # ``table is None``: removed with an earlier cap's subtree.
            if cap.table is not None and doomed(holder, cap):
                yield from self._revoke(cap)

    def _revoke(self, cap: Capability):
        removed = capability.revoke(cap)
        for victim in removed:
            yield from self._teardown(victim)
        return len(removed)

    def _teardown(self, cap: Capability):
        """Generator: undo hardware/software state behind a revoked cap."""
        # Invalidate every endpoint this capability is configured on —
        # revocation must cut hardware access, not just bookkeeping.
        for vpe_id, ep_index in sorted(cap.bound_eps):
            self._bindings.pop((vpe_id, ep_index), None)
            holder = self.vpes.get(vpe_id)
            if holder is not None and holder.state != VpeState.DEAD:
                yield from self.dtu.configure_remote(
                    holder.node, "invalidate", ep_index
                )
        cap.bound_eps.clear()
        obj = cap.obj
        if cap.kind == CapKind.RECV:
            obj.ep_index = None
            # The receiver will never be ready: answer the send-gate
            # activations deferred on it instead of stranding them.
            deferred, obj.pending_activations = obj.pending_activations, []
            for vpe, slot, _ep_index, _cap in deferred:
                self.reply(vpe, slot, ("err", "receive gate revoked"))
        elif cap.kind == CapKind.VPE:
            if not isinstance(obj, RemoteVpeObject):
                self.reset_vpe(obj)
            elif obj.state != VpeState.DEAD:
                # Best-effort kill in the owning domain; the local proxy
                # is marked dead immediately.
                self.ik.request(obj.kernel_id, "vpe_revoke",
                                (obj.remote_id,), lambda payload: None)
                obj.state = VpeState.DEAD
        elif cap.kind == CapKind.MEM and cap.parent is None and not cap.foreign:
            if obj.node == self.dram_node:
                self.memory.free(obj.address, obj.size)
