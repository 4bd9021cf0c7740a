"""Endpoint register model.

Per endpoint the DTU holds the registers named in the paper (Figure 2):
``buffer``, ``target``, ``credits``, and ``label`` — writable only by
kernel PEs — plus the ``data`` register through which the local core
starts transfers (Section 4.3).
"""

from __future__ import annotations

import dataclasses
import enum


#: The ``credits`` value of a send endpoint the DTU never runs down: for
#: a sender whose receiver acknowledges without replying (a device's
#: interrupt line), so that nothing would ever refund a finite count.
#: Spending one and refilling one both leave it unchanged.
UNLIMITED_CREDITS = float("inf")


class EndpointKind(enum.Enum):
    """What an endpoint is currently configured as."""

    INVALID = "invalid"
    SEND = "send"
    RECEIVE = "receive"
    MEMORY = "memory"


class MemoryPerm(enum.Flag):
    """Permissions of a memory endpoint's target region."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    RW = READ | WRITE


@dataclasses.dataclass
class EndpointRegisters:
    """The kernel-writable configuration of one endpoint."""

    kind: EndpointKind = EndpointKind.INVALID

    # -- send endpoints -----------------------------------------------------
    #: target register: the receive endpoint this EP sends to.
    target_node: int = -1
    target_ep: int = -1
    #: label chosen by the *receiver* to identify this sender (KeyKOS-style);
    #: unforgeable because only kernels can write it.
    label: int = 0
    #: remaining message credits and the refill ceiling.
    credits: int = 0
    max_credits: int = 0
    #: maximum message size at the target (the target ringbuffer slot size).
    msg_size: int = 0

    # -- receive endpoints ---------------------------------------------------
    #: buffer register: ringbuffer placement in the PE's local memory.
    buffer_addr: int = 0
    slot_size: int = 0
    slot_count: int = 0
    #: whether replies out of this ringbuffer are permitted (requires the
    #: kernel to have placed the buffer in protected memory; Section 4.4.4).
    replies_enabled: bool = True

    # -- memory endpoints ----------------------------------------------------
    mem_node: int = -1
    mem_addr: int = 0
    mem_size: int = 0
    mem_perm: MemoryPerm = MemoryPerm.NONE

    def invalidate(self) -> None:
        """Reset to the unconfigured state."""
        fresh = EndpointRegisters()
        for field in dataclasses.fields(fresh):
            setattr(self, field.name, getattr(fresh, field.name))

    @classmethod
    def send_config(
        cls,
        target_node: int,
        target_ep: int,
        label: int,
        credits: int,
        msg_size: int,
    ) -> "EndpointRegisters":
        """Build a send-endpoint configuration."""
        if credits < 0:
            raise ValueError("credits cannot be negative")
        if msg_size <= 0:
            raise ValueError("message size must be positive")
        return cls(
            kind=EndpointKind.SEND,
            target_node=target_node,
            target_ep=target_ep,
            label=label,
            credits=credits,
            max_credits=credits,
            msg_size=msg_size,
        )

    @classmethod
    def receive_config(
        cls,
        buffer_addr: int,
        slot_size: int,
        slot_count: int,
    ) -> "EndpointRegisters":
        """Build a receive-endpoint configuration."""
        if slot_size <= 0 or slot_count <= 0:
            raise ValueError("ringbuffer geometry must be positive")
        return cls(
            kind=EndpointKind.RECEIVE,
            buffer_addr=buffer_addr,
            slot_size=slot_size,
            slot_count=slot_count,
        )

    @classmethod
    def memory_config(
        cls, mem_node: int, mem_addr: int, mem_size: int, perm: MemoryPerm
    ) -> "EndpointRegisters":
        """Build a memory-endpoint configuration."""
        if mem_size <= 0:
            raise ValueError("memory region must be non-empty")
        if mem_addr < 0:
            raise ValueError("memory address cannot be negative")
        return cls(
            kind=EndpointKind.MEMORY,
            mem_node=mem_node,
            mem_addr=mem_addr,
            mem_size=mem_size,
            mem_perm=perm,
        )
