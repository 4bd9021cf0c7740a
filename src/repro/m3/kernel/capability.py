"""Capabilities, capability tables, and the derivation tree.

The kernel "maintains a table of capabilities per VPE, similar to the
file descriptor table in UNIX systems", and "to revoke a capability
recursively, i.e., including all grants, the kernel maintains a tree
that records all delegation/obtain operations, similar to the mapping
database found in some L4 microkernels" (Section 4.5.3).
"""

from __future__ import annotations

import enum
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.m3.kernel.vpe import VpeObject


class CapKind(enum.Enum):
    """What kind of kernel object a capability refers to."""

    VPE = "vpe"
    MEM = "mem"
    SEND = "send"
    RECV = "recv"
    SERVICE = "service"
    SESSION = "session"


class Capability:
    """A (kernel object, permissions) pair held in one VPE's table."""

    __slots__ = (
        "kind", "obj", "table", "selector", "parent", "children",
        "bound_eps", "foreign"
    )

    def __init__(self, kind: CapKind, obj: object, foreign: bool = False):
        self.kind = kind
        self.obj = obj
        self.table: "CapTable | None" = None
        self.selector: int | None = None
        #: derivation-tree links for recursive revoke.
        self.parent: "Capability | None" = None
        self.children: list["Capability"] = []
        #: (vpe_id, ep_index) pairs this capability is activated on; the
        #: kernel invalidates these endpoints when the cap is revoked.
        self.bound_eps: set = set()
        #: the referenced object is owned by a *peer kernel domain*
        #: (delegated over the inter-kernel protocol); revoking it must
        #: not free resources into this kernel's allocators.
        self.foreign = foreign

    def derive(self, obj: object | None = None,
               kind: "CapKind | None" = None) -> "Capability":
        """Create a child capability (for delegate/obtain).

        ``obj`` defaults to the same kernel object; derive_mem-style
        operations pass a restricted one.  ``kind`` lets a derivation
        change the capability kind (e.g. a service capability derived
        from the receive gate it registers).
        """
        child = Capability(kind or self.kind, obj if obj is not None else self.obj)
        child.parent = self
        self.children.append(child)
        return child

    def subtree(self) -> list["Capability"]:
        """This capability and all transitively derived ones."""
        result = [self]
        stack = list(self.children)
        while stack:
            cap = stack.pop()
            result.append(cap)
            stack.extend(cap.children)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"sel={self.selector}" if self.table is not None else "detached"
        return f"<Capability {self.kind.value} {where}>"


class CapTable:
    """Per-VPE selector → capability mapping."""

    def __init__(self, vpe: "VpeObject | None" = None):
        self.vpe = vpe
        self._caps: dict[int, Capability] = {}
        self._next_selector = 0

    def insert(self, cap: Capability, selector: int | None = None) -> int:
        """Install ``cap``; returns the chosen selector."""
        if cap.table is not None:
            raise ValueError("capability already installed in a table")
        if selector is None:
            selector = self._next_selector
        if selector in self._caps:
            raise ValueError(f"selector {selector} already in use")
        self._next_selector = max(self._next_selector, selector + 1)
        cap.table = self
        cap.selector = selector
        self._caps[selector] = cap
        return selector

    def get(self, selector: int, kind: CapKind | None = None) -> Capability:
        """Look up a capability, optionally checking its kind."""
        cap = self._caps.get(selector)
        if cap is None:
            raise KeyError(f"no capability at selector {selector}")
        if kind is not None and cap.kind != kind:
            raise KeyError(
                f"capability at selector {selector} is {cap.kind.value}, "
                f"expected {kind.value}"
            )
        return cap

    def remove(self, cap: Capability) -> None:
        """Drop a capability from this table (revocation plumbing)."""
        if cap.table is not self:
            raise ValueError("capability not in this table")
        del self._caps[cap.selector]
        cap.table = None
        cap.selector = None

    def caps(self) -> list[Capability]:
        """A snapshot of the installed capabilities (revoke-safe copy)."""
        return list(self._caps.values())


def revoke(cap: Capability) -> list[Capability]:
    """Recursively revoke ``cap``: remove the derivation subtree from all
    tables.  Returns the removed capabilities so the kernel can tear
    down endpoint configurations behind them.
    """
    removed = cap.subtree()
    for victim in removed:
        if victim.table is not None:
            victim.table.remove(victim)
    # Detach from the tree so parents no longer reference revoked caps.
    if cap.parent is not None:
        cap.parent.children.remove(cap)
        cap.parent = None
    return removed
