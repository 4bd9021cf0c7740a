"""Kernel objects: what capabilities refer to.

"A capability is thereby a pair consisting of a kernel object and
permissions for this object" (Section 4.5.3).  These classes are the
kernel-side state; applications only ever hold selectors.
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from repro.dtu.registers import MemoryPerm

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.m3.kernel.capability import Capability
    from repro.m3.kernel.vpe import VpeObject, VpeState


@dataclasses.dataclass
class MemObject:
    """A region of (usually DRAM) memory reachable via a memory endpoint."""

    node: int
    address: int
    size: int
    perm: MemoryPerm

    def slice(self, offset: int, size: int, perm: MemoryPerm) -> "MemObject":
        """A sub-region with possibly reduced permissions (derive_mem)."""
        if offset < 0 or size <= 0 or offset + size > self.size:
            raise ValueError(
                f"slice [{offset}, {offset + size}) outside region of {self.size}B"
            )
        if perm & ~self.perm:
            raise ValueError("cannot widen permissions when deriving memory")
        return MemObject(self.node, self.address + offset, size, perm)


@dataclasses.dataclass
class RecvGateObject:
    """A receive endpoint somewhere in the system.

    A receive gate is *movable while inactive* — "they can only be
    moved to different endpoints or PEs after invalidating all
    connected send gates and ensuring that no transfer is in progress"
    (Section 4.5.4) — so ``owner`` is fixed at activation, not creation.
    """

    slot_size: int
    slot_count: int
    owner: "VpeObject | None" = None
    #: which endpoint of the owner's DTU the gate is activated on.
    ep_index: int | None = None
    #: deferred send-gate activations waiting for this gate to become
    #: ready (the kernel "defer[s] the reply to the system call until
    #: the receiver is ready to receive messages", Section 4.5.4).
    pending_activations: list = dataclasses.field(default_factory=list)

    @property
    def active(self) -> bool:
        return self.ep_index is not None

    @property
    def node(self) -> int:
        if self.owner is None:
            raise RuntimeError("receive gate is not activated yet")
        return self.owner.node


@dataclasses.dataclass
class SendGateObject:
    """Permission to send to a receive gate, with a fixed label."""

    target: RecvGateObject
    label: int
    credits: int


@dataclasses.dataclass
class ServiceObject:
    """A registered OS service reachable through its receive gate."""

    name: str
    rgate: RecvGateObject
    owner: "VpeObject"
    #: the kernel<->service channel, "created at service registration"
    #: (Section 4.5.3): a send endpoint on the kernel's own DTU.
    kernel_ep: int
    #: the owner's SERVICE capability; sessions are obtained from it.
    cap: "Capability | None" = None
    #: session id -> client (a local VPE or a :class:`RemoteClientRef`),
    #: for service-initiated delegation.
    sessions: dict = dataclasses.field(default_factory=dict)
    _session_ids: itertools.count = dataclasses.field(
        default_factory=lambda: itertools.count(1)
    )

    def next_session_id(self) -> int:
        return next(self._session_ids)


@dataclasses.dataclass
class SessionObject:
    """A client's session with a service (identified by its label)."""

    service: ServiceObject
    label: int
    client: "VpeObject | None" = None


# -- inter-kernel proxies ------------------------------------------------------
#
# With the PE mesh partitioned into kernel domains, each kernel only
# holds real objects for its own domain; cross-domain references are
# carried by the proxies below, exchanged over the inter-kernel
# protocol (see docs/protocols.md).


@dataclasses.dataclass
class RemoteVpeObject:
    """A VPE owned by a peer kernel, held through a VPE capability.

    ``remote_id`` is the VPE id *in the owning kernel's namespace*;
    state/exit_code are cached from inter-kernel replies and may lag
    the authoritative copy.
    """

    remote_id: int
    kernel_id: int
    name: str
    node: int
    state: "VpeState" = None  # type: ignore[assignment]
    exit_code: object = None

    def __post_init__(self):
        if self.state is None:
            from repro.m3.kernel.vpe import VpeState

            self.state = VpeState.INIT


@dataclasses.dataclass
class RemoteGateStub:
    """Stand-in target for a send gate whose receive gate lives in a
    peer kernel domain: just enough addressing for the kernel to build
    the send endpoint configuration.  Always ``active`` — the owning
    kernel only exports a service gate after it is activated."""

    node: int
    ep_index: int
    slot_size: int

    @property
    def active(self) -> bool:
        return True


@dataclasses.dataclass
class RemoteServiceRef:
    """What a cross-domain session's ``service`` field points at."""

    name: str
    kernel_id: int


@dataclasses.dataclass
class RemoteClientRef:
    """The owning service's record of a client in a peer domain; memory
    delegations to such a session are forwarded to ``kernel_id``."""

    kernel_id: int
    vpe_id: int
