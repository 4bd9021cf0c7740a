"""Table invariants of a kernel and quiescence of the DTUs.

Written only against the read-only views the state-owning components
expose (``Sessions.services`` / ``parked`` / ``owners``,
``CapExchange.bindings`` / ``installed()``, ``IkTransport.idle``,
``DTU.idle`` and the endpoint registers), so they hold for any system
however it was driven.  The system fixtures in ``conftest.py`` run
:func:`check_kernel_tables` and :func:`check_dtus_quiescent` as their
teardown.
"""

from repro.dtu.registers import UNLIMITED_CREDITS, EndpointKind
from repro.m3.kernel.objects import RemoteClientRef
from repro.m3.kernel.vpe import VpeState


def check_kernel_tables(system) -> None:
    """Assert every live kernel's capability and session tables are
    consistent (a kernel whose PE was killed stopped mid-flight)."""
    for kernel in system.kernels:
        if not kernel.pe.failed:
            _check_bindings(kernel)
            _check_services(kernel)
            if system.sim.pending_events == 0:
                assert not kernel.sessions.parked, (
                    f"{kernel.label}: negotiations parked on an idle system: "
                    f"{dict(kernel.sessions.parked)}"
                )
                assert kernel.ik.idle, f"{kernel.label}: RPCs owed when idle"


def check_dtus_quiescent(system) -> None:
    """Once the event queue has drained, no DTU of a live PE awaits an
    ack, a response or a retransmit, and every message credit spent is
    back: each send endpoint of a kernel or of a live VPE holds its
    configured total.  (A VPE's last message is EXIT, which the kernel
    never answers: the registers it leaves behind are short by that
    credit until ``wire_syscall_channel`` rewrites them for the PE's
    next VPE, so a PE nobody runs on is not read.)"""
    if system.sim.pending_events:
        return
    in_use = {kernel.node for kernel in system.kernels}
    for kernel in system.kernels:
        in_use.update(vpe.node for vpe in kernel.vpes.values()
                      if vpe.resident and vpe.state != VpeState.DEAD)
    for pe in system.platform.pes:
        if pe.failed:
            continue
        assert pe.dtu.idle, f"PE{pe.node}: DTU owes a transfer when idle"
        if pe.node not in in_use:
            continue
        for index, ep in enumerate(pe.dtu.eps):
            if ep.kind is EndpointKind.SEND \
                    and ep.max_credits != UNLIMITED_CREDITS:
                assert ep.credits == ep.max_credits, (
                    f"PE{pe.node} ep{index}: {ep.credits} of "
                    f"{ep.max_credits} credits on an idle system"
                )


def _check_bindings(kernel) -> None:
    """An endpoint binding and the capability's ``bound_eps`` say the
    same thing, only installed capabilities are bound, and nothing
    installed outlives its parent."""
    label = kernel.label
    bindings = kernel.caps.bindings
    for key, cap in bindings.items():
        assert key in cap.bound_eps, f"{label}: {key} bound to {cap} one-way"
        assert cap.table is not None, f"{label}: {key} bound to revoked {cap}"
    for holder, cap in kernel.caps.installed():
        for key in cap.bound_eps:
            assert bindings.get(key) is cap, (
                f"{label}: {cap} of {holder} claims {key}, the table says "
                f"{bindings.get(key)}"
            )
        parent = cap.parent
        assert parent is None or parent.table is not None, (
            f"{label}: {cap} of {holder} outlived its revoked parent"
        )


def _check_services(kernel) -> None:
    """Every registered service has a live owner and its own kernel
    endpoint — and the kernel holds no other; every session belongs to
    a live local VPE or to a client of a live peer."""
    label = kernel.label
    services = kernel.sessions.services
    held = {
        index for index, ep in enumerate(kernel.dtu.eps)
        if ep.kind is EndpointKind.SEND
        and index not in kernel.peers.values()
    }
    assert held == {service.kernel_ep for service in services.values()}, (
        f"{label}: kernel send endpoints {sorted(held)} for services "
        f"{sorted(services)}"
    )
    assert len(held) == len(services), f"{label}: services share an endpoint"
    for name, service in services.items():
        assert service.owner.state != VpeState.DEAD, (
            f"{label}: service {name!r} outlived its owner"
        )
        assert kernel.vpes.get(service.owner.id) is service.owner
        for session_id, client in service.sessions.items():
            if isinstance(client, RemoteClientRef):
                live = (client.kernel_id in kernel.peers
                        and client.kernel_id not in kernel.dead_peers)
            else:
                live = (kernel.vpes.get(client.id) is client
                        and client.state != VpeState.DEAD)
            assert live, (
                f"{label}: session {session_id} of {name!r} belongs to "
                f"{client}, which is gone"
            )
