"""The per-VPE runtime environment.

An :class:`Env` is what application code receives as its first
argument: access to the local PE and DTU, the syscall channel, the
endpoint multiplexer, and the VFS.  It is libm3's view of one VPE.
"""

from __future__ import annotations

import typing

from repro import params
from repro.m3.kernel import syscalls
from repro.m3.kernel.syscalls import APP_REPLY_EP, APP_SYSCALL_EP, SYSCALL_MSG_BYTES, SyscallError
from repro.m3.lib.marshalling import wire_size
from repro.sim.ledger import Tag

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hw.pe import ProcessingElement
    from repro.m3.system import M3System


class EpMux:
    """Endpoint multiplexer: more gates than endpoints.

    "since the DTU provides only a limited number of endpoints ... and
    applications might need more send gates or memory gates than
    endpoints are available, multiplexing is used to share the
    endpoints among these gates.  This is done by libm3, which checks
    before the usage of a gate whether the endpoint is appropriately
    configured" (Section 4.5.4).  Receive gates are pinned; send and
    memory gates are evicted in LRU order.
    """

    def __init__(self, env: "Env"):
        self.env = env
        first = Env.FIRST_FREE_EP
        total = len(env.pe.dtu.eps)
        #: ep index -> gate currently occupying it (None = free).
        self.slots: dict[int, object] = {ep: None for ep in range(first, total)}
        #: LRU clock; bound gates bump it inline on each use
        #: (``use_clock += 1; last_use[ep] = use_clock``).
        self.use_clock = 0
        self.last_use: dict[int, int] = {ep: 0 for ep in self.slots}
        self.activations = 0

    def touch(self, ep_index: int) -> None:
        self.use_clock += 1
        self.last_use[ep_index] = self.use_clock

    def invalidate_all(self) -> None:
        """Forget every binding (after the kernel context-switched this
        VPE off its PE and invalidated the endpoints)."""
        for ep_index, gate in self.slots.items():
            if gate is not None:
                gate.ep = None
            self.slots[ep_index] = None

    def acquire(self, gate):
        """Generator: make sure ``gate`` is bound to an endpoint."""
        if gate.ep is not None:
            self.touch(gate.ep)
            return gate.ep
        victim_ep = None
        for ep, occupant in self.slots.items():
            if occupant is None:
                victim_ep = ep
                break
        if victim_ep is None:
            # Evict the least-recently-used non-pinned gate.
            candidates = [
                ep for ep, occupant in self.slots.items()
                if occupant is not None and not occupant.pinned
            ]
            if not candidates:
                raise RuntimeError("all endpoints are pinned; cannot multiplex")
            victim_ep = min(candidates, key=lambda ep: self.last_use[ep])
            self.slots[victim_ep].ep = None
        yield from self.env.syscall(syscalls.ACTIVATE, victim_ep, gate.selector)
        self.slots[victim_ep] = gate
        gate.ep = victim_ep
        self.touch(victim_ep)
        self.activations += 1
        return victim_ep


class Env:
    """libm3's runtime state for one running VPE."""

    #: standard endpoint assignment (mirrors the kernel's constants).
    EP_SYSCALL = APP_SYSCALL_EP
    EP_REPLY = APP_REPLY_EP
    FIRST_FREE_EP = 2

    def __init__(self, system: "M3System", vpe_id: int,
                 pe: "ProcessingElement"):
        self.system = system
        self.vpe_id = vpe_id
        self.pe = pe
        self.sim = system.sim
        self.dtu = pe.dtu
        self.epmux = EpMux(self)
        self.syscall_count = 0
        #: Figure 6 methodology: replace DRAM data transfers with
        #: equal-time spinning (messages still go over the NoC).
        self.spin_io = False
        #: lazily created VFS (applications that never touch files pay
        #: nothing for it).
        self._vfs = None

    # -- syscalls -----------------------------------------------------------

    def syscall(self, opcode: str, *args):
        """Generator: perform a syscall and return its result.

        Sends the message through the DTU to the kernel PE and waits
        for the reply (Section 5.3); raises :class:`SyscallError` on an
        error reply.
        """
        self.syscall_count += 1
        obs = self.sim.obs
        started = self.sim.now
        # The client span is the root of the request's causal trace
        # (unless this syscall itself runs on behalf of another traced
        # request, e.g. from a service handler): the DTU stamps the
        # trace context into the message header, and everything the
        # kernel (and any service) does for this syscall hangs off it.
        span = -1
        if obs is not None:
            span = obs.begin(opcode, "syscall-client", self.pe.node,
                             vpe=self.vpe_id)
        payload = (opcode, args)
        try:
            yield self.sim.delay(params.M3_SYSCALL_CLIENT_CYCLES, tag=Tag.OS)
            self.dtu.send(
                self.EP_SYSCALL,
                payload,
                min(wire_size(payload), SYSCALL_MSG_BYTES),
                reply_ep=self.EP_REPLY,
            )
            slot, reply = yield from self._await_reply()
        except BaseException:
            if obs is not None:
                obs.end(span, outcome="interrupted")
            raise
        self.dtu.ack_message(self.EP_REPLY, slot)
        if obs is not None:
            # Client-observed syscall round trip: request marshalling,
            # both DTU transfers, and the kernel's handling.
            obs.observe("m3.syscall_rtt", self.sim.now - started)
            obs.end(span)
        status, result = reply.payload
        if status != "ok":
            raise SyscallError(result)
        return result

    def _await_reply(self):
        """Generator: wait for a reply, re-reading :attr:`dtu` on every
        wake-up.

        A context switch can *migrate* this VPE while it is parked in a
        syscall; the restore fires a spurious wake-up on the old DTU and
        this loop then continues on the new one.
        """
        while True:
            fetched = self.dtu.fetch_message(self.EP_REPLY)
            if fetched is not None:
                return fetched
            yield self.dtu.signal(self.EP_REPLY).wait()

    def exit(self, code: object = 0):
        """Generator: tell the kernel this VPE is done (no reply)."""
        yield self.sim.delay(params.M3_SYSCALL_CLIENT_CYCLES, tag=Tag.OS)
        yield self.dtu.send(
            self.EP_SYSCALL,
            (syscalls.EXIT, (code,)),
            SYSCALL_MSG_BYTES,
        )

    # -- timing helpers --------------------------------------------------------

    def compute(self, cycles: int):
        """Application computation (the figures' "App" stack)."""
        return self.sim.delay(cycles, tag=Tag.APP)

    def compute_op(self, operation: str, nbytes: int):
        """Computation priced by this PE's core type (e.g. ``fft``)."""
        return self.pe.compute_op(operation, nbytes)

    def os_work(self, cycles: int):
        """libm3/OS-path cycles (the figures' "OS" stack)."""
        return self.sim.delay(cycles, tag=Tag.OS)

    # -- memory helpers ----------------------------------------------------------

    def alloc_buffer(self, nbytes: int) -> int:
        """SPM space for an application buffer."""
        return self.pe.alloc_buffer(nbytes)

    def request_mem(self, size: int, perm_value: int):
        """Generator: obtain a DRAM region capability (selector)."""
        return (yield from self.syscall(syscalls.REQUEST_MEM, size, perm_value))

    # -- filesystem access ----------------------------------------------------------

    @property
    def vfs(self):
        """The mount table (created on first use)."""
        if self._vfs is None:
            from repro.m3.lib.vfs import VFS

            self._vfs = VFS(self)
        return self._vfs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Env vpe={self.vpe_id} pe={self.pe.node}>"
