"""PE time-multiplexing: context switching VPEs on and off a PE.

The paper plans this as future work (Sections 3.3 and 7): "we plan to
support the multiplexing of a core among a group of threads ... not
context-switch periodically, but only if required.  ... For a
communication that involves longer wait times, we plan to inform the
kernel about a potentially reusable core, which can then perform a
context switch to another thread of execution ... the kernel needs to
switch back to the old thread before the interrupted communication can
be completed."

This module implements exactly that, voluntary-yield flavour:

- When :data:`Kernel.multiplexing` is on and ``create_vpe`` finds no
  free PE, the new VPE is *queued* on the least-loaded multiplexable PE
  and its loader memory capability points at a DRAM **staging area**
  instead of the SPM (the paper's own suggestion in Section 4.5.5).
- A resident VPE that expects a long wait performs the
  ``vpe_wait_yield`` syscall; the kernel parks the reply, saves the
  VPE's SPM to its staging area over the DTU (a real, timed transfer),
  invalidates its endpoints, and switches the next queued VPE in.
- When ``Kernel.vpe_exited`` answers the wait (the child exited or
  failed), the yielder is re-scheduled once its PE frees up: staging
  is copied back, the syscall channel endpoints are reconfigured, and
  only then does the parked reply arrive.

Timing: each direction moves the SPM image at DTU speed plus a fixed
kernel orchestration cost — the direct cost of a context switch that
dedicated-PE execution avoids (Section 3.4's trade-off, quantified by
the ``abl_multiplexing`` eval).
"""

from __future__ import annotations

import functools
import typing

from repro.hw.dram import bulk_copy_cycles
from repro.m3.kernel.syscalls import NO_REPLY
from repro.m3.kernel.vpe import VpeObject, VpeState
from repro.sim.ledger import Tag

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.m3.kernel.kernel import Kernel

#: kernel software cost to orchestrate one switch direction.
SWITCH_KERNEL_CYCLES = 800


class ContextSwitcher:
    """Per-kernel state machine for PE multiplexing."""

    def __init__(self, kernel: "Kernel"):
        self.kernel = kernel
        self.sim = kernel.sim
        #: node -> VPEs queued to run there (not yet resident).
        self.queues: dict[int, list[VpeObject]] = {}
        #: node -> currently resident VPE (None while switching).
        self.resident: dict[int, VpeObject | None] = {}
        #: node -> a switch operation is in flight.
        self.switching: dict[int, bool] = {}
        #: node -> VPEs switched out (suspended) from that PE.
        self.suspended: dict[int, set] = {}
        self.switch_count = 0

    def _pe_has_pending_work(self, node: int) -> bool:
        return bool(
            self.queues.get(node)
            or self.suspended.get(node)
            or self.switching.get(node)
        )

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def place(self, name: str,
              preferred_node: int | None = None) -> VpeObject | None:
        """Queue a new VPE on a multiplexable PE.

        Only general-purpose cores can be multiplexed — "this will be
        restricted to the subset of the cores that support it, i.e.,
        some accelerators might be excluded" (Section 3.3).  PEs hosting
        registered services are excluded too (a service never yields),
        and the creator's own PE is preferred: parent and child
        typically alternate through wait_yield.
        """
        service_nodes = {
            service.owner.node for service in self.kernel.services.values()
        }
        candidates = [
            pe
            for pe in self.kernel.platform.pes
            if pe.node != self.kernel.node
            and pe.node not in service_nodes
            and pe.core.general_purpose
            and pe.node in self.resident
        ]
        if not candidates:
            return None
        preferred = [pe for pe in candidates if pe.node == preferred_node]
        if preferred:
            pe = preferred[0]
        else:
            pe = min(candidates, key=lambda p: len(self.queues[p.node]))
        vpe = self.kernel.new_vpe(name, pe)
        vpe.resident = False
        self.queues[pe.node].append(vpe)
        # Loader capability: a DRAM staging area the size of the SPM
        # (Section 4.5.5: "If caches are available, it will be some
        # PE-external memory").
        vpe.staging_addr = self.kernel.memory.allocate(pe.spm_data.size)
        return vpe

    def adopt(self, vpe: VpeObject) -> None:
        """Register a normally-created (resident) VPE with the switcher."""
        if vpe.pe.core.general_purpose:
            self.adopt_node(vpe.pe)
            self.resident[vpe.node] = vpe

    # ------------------------------------------------------------------
    # starting queued VPEs
    # ------------------------------------------------------------------

    def start_queued(self, vpe: VpeObject, entry, args: tuple) -> None:
        """Record the entry point; run it when the VPE gets the PE."""
        vpe.pending_entry = (entry, args)
        self._try_dispatch(vpe.node)

    def _try_dispatch(self, node: int) -> None:
        """If the PE is free, switch the next ready queued VPE in."""
        if self.switching.get(node) or self.resident.get(node) is not None:
            return
        queue = self.queues.get(node, [])
        for index, vpe in enumerate(queue):
            if vpe.pending_entry is not None or vpe.saved:
                queue.pop(index)
                self.switching[node] = True
                self.sim.process(self._switch_in(vpe), f"ctxsw.in.{vpe.name}")
                return

    # ------------------------------------------------------------------
    # the switch operations (run as kernel background activities: the
    # DTUs move the data; the kernel only orchestrates)
    # ------------------------------------------------------------------

    def _switch_out(self, vpe: VpeObject):
        """Generator: save a yielded VPE's state and free its PE."""
        node = vpe.node
        self.switch_count += 1
        obs = self.sim.obs
        span = None
        if obs is not None:
            obs.count("kernel.ctx_switches")
            span = obs.begin("switch_out", "ctxsw", node, vpe=vpe.id)
        yield self.sim.delay(SWITCH_KERNEL_CYCLES, tag=Tag.OS)
        # Save the SPM image to the staging area (real bytes, real time).
        if vpe.staging_addr is None:
            vpe.staging_addr = self.kernel.memory.allocate(vpe.pe.spm_data.size)
        vpe.saved_alloc_mark = vpe.pe.alloc_mark
        image = vpe.pe.spm_data.read(0, vpe.pe.spm_data.size)
        yield self.sim.delay(bulk_copy_cycles(vpe.pe.spm_data.size),
                             tag=Tag.XFER)
        self.kernel.platform.dram.memory.write(vpe.staging_addr, image)
        # Tear down the endpoints; messages in flight to this VPE drop,
        # exactly the hazard the paper's "switch back before the
        # interrupted communication completes" rule avoids.
        for ep_index in range(len(vpe.pe.dtu.eps)):
            yield from self.kernel.dtu.configure_remote(
                node, "invalidate", ep_index
            )
        self.kernel.caps.unbind_vpe(vpe)
        vpe.resident = False
        vpe.saved = True
        self.resident[node] = None
        self.suspended.setdefault(node, set()).add(vpe)
        # The PE stays claimed: a suspended VPE will come back to it.
        vpe.pe.reserved = True
        env = self.kernel.envs.get(vpe.id)
        if env is not None:
            env.epmux.invalidate_all()
        if span is not None:
            obs.end(span)
        self.switching[node] = False
        self._try_dispatch(node)

    def _switch_in(self, vpe: VpeObject):
        """Generator: make a queued/saved VPE resident and (re)start it."""
        node = vpe.node
        self.switch_count += 1
        obs = self.sim.obs
        span = None
        if obs is not None:
            obs.count("kernel.ctx_switches")
            span = obs.begin("switch_in", "ctxsw", node, vpe=vpe.id)
        yield self.sim.delay(SWITCH_KERNEL_CYCLES, tag=Tag.OS)
        if vpe.staging_addr is not None:
            image = self.kernel.platform.dram.memory.read(
                vpe.staging_addr, vpe.pe.spm_data.size
            )
            yield self.sim.delay(bulk_copy_cycles(vpe.pe.spm_data.size),
                                 tag=Tag.XFER)
            vpe.pe.spm_data.write(0, image)
        # Re-wire the standard syscall channel.
        yield from self.kernel.wire_syscall_channel(vpe)
        vpe.resident = True
        vpe.saved = False
        self.resident[node] = vpe
        if span is not None:
            obs.end(span)
        self.switching[node] = False
        self.suspended.setdefault(node, set()).discard(vpe)
        if vpe.pending_entry is not None:
            entry, args = vpe.pending_entry
            vpe.pending_entry = None
            vpe.state = VpeState.RUNNING
            vpe.pe.release()
            self.kernel.start_software(vpe, entry, args)
        else:
            # A restored VPE: restore the SPM allocator mark, and keep
            # the PE claimed while the suspended process resumes.
            vpe.pe.alloc_mark = vpe.saved_alloc_mark
            vpe.pe.reserved = True
            if vpe.parked_reply is not None:
                slot_payload = vpe.parked_reply
                vpe.parked_reply = None
                self.kernel.reply(vpe, *slot_payload)

    # ------------------------------------------------------------------
    # the voluntary yield (vpe_wait_yield syscall)
    # ------------------------------------------------------------------

    def wait_yield(self, vpe: VpeObject, slot: int, child: VpeObject):
        """Generator: park the wait reply; reuse the PE if someone is
        queued for it."""
        if child.state == VpeState.DEAD:
            return child.exit_code  # immediate reply, no switch
        child.exit_waiters.append(
            functools.partial(self._answer_yielder, vpe, slot)
        )
        node = vpe.node
        if self.queues.get(node) and not self.switching.get(node):
            if any(w.pending_entry is not None or w.saved
                   for w in self.queues[node]):
                self.switching[node] = True
                self.sim.process(
                    self._switch_out(vpe), f"ctxsw.out.{vpe.name}"
                )
        return NO_REPLY
        yield  # pragma: no cover

    def _answer_yielder(self, vpe: VpeObject, slot: int, verdict) -> None:
        """Answer a parked wait_yield, switching the yielder back in
        first if it is out."""
        if vpe.state == VpeState.DEAD:
            return
        if vpe.resident:
            self.kernel.reply(vpe, slot, verdict)
        else:
            # The kernel "switch[es] back to the old thread before
            # the interrupted communication can be completed".
            vpe.parked_reply = (slot, verdict)
            self.queues[vpe.node].append(vpe)
            self._try_dispatch(vpe.node)

    def vpe_gone(self, vpe: VpeObject) -> None:
        """A resident VPE exited: free the PE for queued VPEs."""
        node = vpe.node
        if self.resident.get(node) is vpe:
            self.resident[node] = None
        self.suspended.setdefault(node, set()).discard(vpe)
        if vpe.staging_addr is not None:
            self.kernel.memory.free(vpe.staging_addr, vpe.pe.spm_data.size)
            vpe.staging_addr = None
        if self._pe_has_pending_work(node):
            # The exit released the PE; claim it back for the VPEs that
            # are queued or suspended here.
            vpe.pe.reserved = True
        self._try_dispatch(node)

    def adopt_node(self, pe) -> None:
        """Ensure switcher bookkeeping exists for a PE."""
        self.resident.setdefault(pe.node, None)
        self.queues.setdefault(pe.node, [])
        self.switching.setdefault(pe.node, False)
        self.suspended.setdefault(pe.node, set())
