"""Table invariants of a kernel, checked at quiescence.

Written only against the read-only views the state-owning components
expose (``Sessions.services`` / ``parked`` / ``owners``,
``CapExchange.bindings`` / ``installed()``, ``IkTransport.idle``), so
they hold for any system however it was driven.  The system fixtures
in ``conftest.py`` run :func:`check_kernel_tables` as their teardown.
"""

from repro.dtu.registers import EndpointKind
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
