"""Capability exchange against bare DTUs: a :class:`CapExchange` on
node 0's DTU, hand-built VPEs on the other nodes and a scripted peer
transport — no ``Kernel``, no booted system (only the last test, the
regression as it was reported, boots one)."""

import pytest

from repro.dtu.registers import EndpointKind, MemoryPerm
from repro.hw import Platform
from repro.m3.kernel import syscalls
from repro.m3.kernel.capability import Capability, CapKind
from repro.m3.kernel.capexchange import CapExchange
from repro.m3.kernel.memmgr import MemoryManager
from repro.m3.kernel.objects import (
    MemObject,
    RecvGateObject,
    RemoteVpeObject,
    SendGateObject,
)
from repro.m3.kernel.syscalls import NO_REPLY, SyscallError
from repro.m3.kernel.vpe import VpeObject, VpeState
from repro.m3.lib.gate import SendGate
from repro.m3.lib.vpe import VPE

DRAM_BYTES = 1 << 16
PEER = 3  # a peer kernel's id


class _PeerTransport:
    """What :class:`CapExchange` uses of the RPC transport: records
    each request and answers it at once with ``answer(operation)``."""

    def __init__(self, answer=lambda operation: ("ok", 11)):
        self.answer = answer
        self.requests = []

    def request(self, peer, operation, args, continuation):
        self.requests.append((peer, operation, args))
        continuation(self.answer(operation))


class _Rig:
    """A :class:`CapExchange` over two VPEs, ``a`` on node 1 and ``b``
    on node 2; ``a`` holds a VPE capability for ``b`` (``b_sel``)."""

    def __init__(self):
        self.platform = platform = Platform.build(pe_count=4)
        self.sim = platform.sim
        self.memory = MemoryManager(0, DRAM_BYTES)
        self.ik = _PeerTransport()
        self.replies = []  # late syscall answers: (vpe, slot, payload)
        self.resets = []   # VPEs whose capability was revoked
        self.vpes = {}
        self.caps = CapExchange(
            self.sim, platform.pe(0).dtu, self.ik, self.vpes, self.memory,
            platform.dram_node, lambda *reply: self.replies.append(reply),
            self.resets.append,
        )
        self.a, self.b = (self.vpe(name, node, vpe_id) for name, node, vpe_id
                          in (("a", 1, 5), ("b", 2, 6)))
        self.b_sel = self.a.captable.insert(Capability(CapKind.VPE, self.b))

    def vpe(self, name, node, vpe_id):
        vpe = VpeObject(name, self.platform.pe(node), vpe_id)
        vpe.state = VpeState.RUNNING
        self.vpes[vpe_id] = vpe
        return vpe

    def run(self, handler):
        """Drive one handler generator to its verdict."""
        return self.sim.run_process(handler)

    def region(self, vpe, size=4096):
        """A root memory capability over freshly allocated DRAM."""
        obj = MemObject(self.platform.dram_node, self.memory.allocate(size),
                        size, MemoryPerm.RW)
        return vpe.captable.insert(Capability(CapKind.MEM, obj))

    def gates(self):
        """``a`` creates a receive gate and a send gate to it and
        delegates the send gate to ``b``; returns their selectors."""
        rgate_cap = Capability(CapKind.RECV, RecvGateObject(64, 4))
        rgate_sel = self.a.captable.insert(rgate_cap)
        sgate_sel = self.a.captable.insert(rgate_cap.derive(
            SendGateObject(rgate_cap.obj, label=7, credits=1), CapKind.SEND
        ))
        return rgate_sel, self.run(
            self.caps.delegate(self.a, 0, self.b_sel, sgate_sel)
        )

    def ep(self, vpe, ep_index):
        return vpe.pe.dtu.ep(ep_index)


def test_bind_rebind_unbind():
    rig = _Rig()
    first, second = rig.region(rig.a), rig.region(rig.a)
    first_cap, second_cap = (rig.a.captable.get(sel) for sel in (first, second))
    key = (rig.a.id, 4)

    assert rig.run(rig.caps.activate(rig.a, 0, 4, first)) == ()
    assert rig.ep(rig.a, 4).kind is EndpointKind.MEMORY
    assert dict(rig.caps.bindings) == {key: first_cap}
    assert first_cap.bound_eps == {key}

    # Another capability on the same endpoint retires the first one's
    # record, so revoking it later leaves the endpoint alone.
    rig.run(rig.caps.activate(rig.a, 0, 4, second))
    assert dict(rig.caps.bindings) == {key: second_cap}
    assert first_cap.bound_eps == set() and second_cap.bound_eps == {key}
    assert rig.run(rig.caps.revoke(rig.a, 0, first)) == 1
    assert rig.ep(rig.a, 4).kind is EndpointKind.MEMORY

    # Switched out: the hardware is the context switcher's business,
    # the records are gone from both sides.
    rig.run(rig.caps.activate(rig.b, 0, 5, rig.region(rig.b)))
    rig.caps.unbind_vpe(rig.a)
    assert list(rig.caps.bindings) == [(rig.b.id, 5)]
    assert second_cap.bound_eps == set()

    with pytest.raises(SyscallError, match="out of range"):
        rig.run(rig.caps.activate(rig.a, 0, 99, second))
    with pytest.raises(TypeError):
        rig.caps.bindings[key] = first_cap  # a view, not the table


def test_revoke_cuts_the_hardware_behind_every_grant():
    rig = _Rig()
    holes = list(rig.memory._free)
    root = rig.region(rig.a)
    granted = rig.run(rig.caps.delegate(rig.a, 0, rig.b_sel, root))
    rig.run(rig.caps.activate(rig.a, 0, 4, root))
    rig.run(rig.caps.activate(rig.b, 0, 6, granted))
    assert rig.ep(rig.b, 6).kind is EndpointKind.MEMORY

    assert rig.run(rig.caps.revoke(rig.a, 0, root)) == 2
    assert rig.ep(rig.a, 4).kind is EndpointKind.INVALID
    assert rig.ep(rig.b, 6).kind is EndpointKind.INVALID
    assert not rig.caps.bindings
    assert not rig.b.captable.caps()
    assert rig.memory._free == holes  # the root region went back


def test_revoke_where_takes_each_subtree_once():
    rig = _Rig()
    keep, doomed = rig.region(rig.a), rig.region(rig.a)
    granted = rig.run(rig.caps.delegate(rig.a, 0, rig.b_sel, doomed))
    rig.run(rig.caps.activate(rig.b, 0, 6, granted))
    doomed_obj = rig.a.captable.get(doomed).obj

    # The predicate names parent and child alike; the child goes with
    # the parent's subtree and is not visited again.
    seen = []

    def on_doomed_region(holder, cap):
        seen.append((holder.name, cap.selector))
        return cap.kind is CapKind.MEM and cap.obj == doomed_obj

    rig.run(rig.caps.revoke_where(on_doomed_region))
    assert (rig.b.name, granted) not in seen
    assert rig.ep(rig.b, 6).kind is EndpointKind.INVALID
    assert [cap.selector for _holder, cap in rig.caps.installed()
            if cap.kind is CapKind.MEM] == [keep]


def test_deferred_activation_completes_when_the_receiver_is_ready():
    rig = _Rig()
    rgate_sel, sgate_sel = rig.gates()
    assert rig.run(rig.caps.activate(rig.b, 9, 4, sgate_sel)) is NO_REPLY
    rig.sim.run()
    assert rig.replies == [] and not rig.caps.bindings
    assert rig.ep(rig.b, 4).kind is EndpointKind.INVALID

    assert rig.run(rig.caps.activate(rig.a, 0, 3, rgate_sel)) == ()
    rig.sim.run()
    assert rig.replies == [(rig.b, 9, ("ok", ()))]
    ep = rig.ep(rig.b, 4)
    assert (ep.kind, ep.target_node, ep.target_ep, ep.label) == (
        EndpointKind.SEND, rig.a.node, 3, 7
    )
    assert set(rig.caps.bindings) == {(rig.a.id, 3), (rig.b.id, 4)}

    # Now that the gate is active it stays where it is.
    with pytest.raises(SyscallError, match="cannot be delegated"):
        rig.run(rig.caps.delegate(rig.a, 0, rig.b_sel, rgate_sel))


def test_revoking_the_receive_gate_answers_deferred_activations():
    rig = _Rig()
    rgate_sel, sgate_sel = rig.gates()
    rgate = rig.a.captable.get(rgate_sel).obj
    assert rig.run(rig.caps.activate(rig.b, 9, 4, sgate_sel)) is NO_REPLY

    # Gate, a's send gate, b's send gate.
    assert rig.run(rig.caps.revoke(rig.a, 0, rgate_sel)) == 3
    assert rig.replies == [(rig.b, 9, ("err", "receive gate revoked"))]
    assert rgate.pending_activations == [] and not rgate.active
    assert not rig.b.captable.caps() and not rig.caps.bindings


def test_grants_across_domains_are_forwarded_and_foreign():
    rig = _Rig()
    far = RemoteVpeObject(remote_id=4, kernel_id=PEER, name="far", node=9)
    far_sel = rig.a.captable.insert(Capability(CapKind.VPE, far))
    root = rig.region(rig.a, 1024)
    region = rig.a.captable.get(root).obj

    # Outbound: the region's descriptor travels, the peer's answer is
    # the syscall's reply.
    assert rig.run(rig.caps.delegate(rig.a, 2, far_sel, root)) is NO_REPLY
    assert rig.ik.requests == [(PEER, "delegate_mem", (
        4, region.node, region.address, 1024, MemoryPerm.RW.value
    ))]
    assert rig.replies == [(rig.a, 2, ("ok", 11))]
    with pytest.raises(SyscallError, match="only memory capabilities"):
        rig.run(rig.caps.delegate(rig.a, 2, far_sel, rig.b_sel))

    # Inbound: installed foreign, so revoking it frees nothing here.
    sel = rig.run(rig.caps.serve_delegate_mem(
        0, PEER, rig.b.id, rig.platform.dram_node, 0, 512, MemoryPerm.READ.value
    ))
    assert rig.b.captable.get(sel, CapKind.MEM).foreign
    holes = list(rig.memory._free)
    assert rig.run(rig.caps.revoke(rig.b, 0, sel)) == 1
    assert rig.memory._free == holes
    with pytest.raises(SyscallError, match="no live VPE 99"):
        rig.run(rig.caps.serve_delegate_mem(0, PEER, 99, 0, 0, 512, 1))


def test_revoking_a_vpe_capability_resets_it_here_or_at_its_owner():
    rig = _Rig()
    far = RemoteVpeObject(remote_id=4, kernel_id=PEER, name="far", node=9)
    far_sel = rig.a.captable.insert(Capability(CapKind.VPE, far))

    rig.run(rig.caps.revoke(rig.a, 0, rig.b_sel))
    assert rig.resets == [rig.b] and rig.ik.requests == []
    rig.run(rig.caps.revoke(rig.a, 0, far_sel))
    assert rig.ik.requests == [(PEER, "vpe_revoke", (4,))]
    assert far.state is VpeState.DEAD and rig.resets == [rig.b]


# -- the regression, as reported: a booted system -----------------------------


def test_revoked_receive_gate_fails_the_childs_activation(system):
    """Regression: revoking a receive gate only cleared its endpoint
    index, so a send-gate activation deferred on it was never answered
    and the activating VPE blocked forever."""

    def child(env, sgate_sel):
        with pytest.raises(SyscallError, match="receive gate revoked"):
            yield from SendGate(env, sgate_sel).activate()
        return "answered"

    def parent(env):
        rgate_sel = yield from env.syscall(syscalls.CREATE_RGATE, 64, 4)
        sgate_sel = yield from env.syscall(
            syscalls.CREATE_SGATE, rgate_sel, 7, 1
        )
        vpe = yield from VPE.create(env, "child")
        child_sel = yield from vpe.delegate(sgate_sel)
        yield from vpe.run(child, child_sel)
        yield env.sim.delay(20_000)
        removed = yield from env.syscall(syscalls.REVOKE, rgate_sel)
        return removed, (yield from vpe.wait())

    assert system.run_app(parent, name="parent") == (3, "answered")
    assert system.sim.pending_events == 0
