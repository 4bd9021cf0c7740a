"""The VPE API: creating and controlling other virtual PEs.

Mirrors the paper's Section 4.5.5: a VPE is created via a system call
(optionally requesting a PE type, e.g. an accelerator), loaded either
by *cloning* the caller (``run``, like fork) or by loading an
executable from the filesystem (``exec``), and awaited with ``wait``.
"""

from __future__ import annotations

import typing

from repro import params
from repro.m3.kernel import syscalls
from repro.m3.lib.gate import MemGate
from repro.sim.ledger import Tag

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.m3.lib.env import Env

#: Modelled size of "the code, static data, the used portion of the
#: heap and the stack" transferred by a clone (Section 4.5.5).  Half of
#: each 64 KiB SPM bank in use is a representative prototype image.
CLONE_IMAGE_BYTES = 32 * 1024


class VPE:
    """A handle on another VPE, owned by the creating application."""

    def __init__(self, env: "Env", selector: int, spm_gate: MemGate,
                 vpe_id: int):
        self.env = env
        self.selector = selector
        self.spm_gate = spm_gate
        self.vpe_id = vpe_id

    @classmethod
    def create(cls, env: "Env", name: str, pe_type: str | None = None):
        """Generator: the create_vpe syscall.

        "the kernel creates a VPE kernel object and a VPE capability for
        the VPE that requested it.  Furthermore, the requesting VPE
        receives a memory gate for the memory that the VPE can access."
        """
        vpe_sel, spm_sel, vpe_id = yield from env.syscall(
            syscalls.CREATE_VPE, name, pe_type
        )
        spm_gate = MemGate(env, spm_sel)
        return cls(env, vpe_sel, spm_gate, vpe_id)

    # -- capability exchange -----------------------------------------------

    def delegate(self, selector: int):
        """Generator: grant one of the caller's capabilities to this VPE;
        returns the selector it gets in the target's table."""
        return (
            yield from self.env.syscall(syscalls.DELEGATE, self.selector, selector)
        )

    def delegate_gate(self, gate):
        """Generator: delegate the capability behind a gate object."""
        return (yield from self.delegate(gate.selector))

    # -- loading -----------------------------------------------------------------

    def run(self, entry, *args):
        """Generator: clone the caller onto this VPE and run ``entry``.

        "libm3 transfers the code, static data, the used portion of the
        heap and the stack to the corresponding locations of the memory
        denoted by the memory gate" — no virtual memory needed because
        the regions land at the same addresses (Section 4.5.5).
        ``entry`` is the Python stand-in for the lambda/function that
        starts executing on the target PE.
        """
        yield self.env.sim.delay(params.M3_VPE_RUN_SW_CYCLES, tag=Tag.OS)
        image = bytes(CLONE_IMAGE_BYTES)
        yield from self.spm_gate.write(0, image)
        yield from self.env.syscall(
            syscalls.VPE_START, self.selector, entry, args
        )

    def exec(self, path: str, *args):
        """Generator: load an executable from the filesystem onto this
        VPE and run it (Section 4.5.5's second loading operation).

        The file's *content bytes* are read through the normal file API
        (and therefore cost real transfer time); its basename selects
        the registered program to execute.
        """
        from repro.m3.lib.file import OpenFlags

        file = yield from self.env.vfs.open(path, OpenFlags.R)
        image = bytearray()
        while True:
            chunk = yield from file.read(4096)
            if not chunk:
                break
            image.extend(chunk)
        yield from file.close()
        yield from self.spm_gate.write(0, bytes(image))
        program = path.rsplit("/", 1)[-1]
        yield from self.env.syscall(
            syscalls.VPE_START, self.selector, ("program", program), args
        )

    # -- lifecycle ------------------------------------------------------------------

    def wait(self):
        """Generator: block until the VPE exits; returns its exit code."""
        return (yield from self.env.syscall(syscalls.VPE_WAIT, self.selector))

    def migrate(self, domain: int | None = None):
        """Generator: live-migrate this (running) VPE to a free PE.
        The target keeps executing across the move — its SPM image,
        endpoint registers, and unread messages travel with it.

        With ``domain=None`` the VPE moves within the kernel's own
        domain and the syscall returns the node it runs on afterwards.
        Naming a peer kernel ``domain`` migrates it across the domain
        boundary (the checkpoint rides the inter-kernel RPC) and the
        syscall returns ``(remote_id, node)``; the caller's capability
        then holds the VPE through a remote proxy."""
        if domain is None:
            return (
                yield from self.env.syscall(
                    syscalls.MIGRATE_VPE, self.selector
                )
            )
        return (
            yield from self.env.syscall(
                syscalls.MIGRATE_VPE, self.selector, domain
            )
        )

    def wait_yield(self):
        """Generator: like :meth:`wait`, but tells the kernel the wait
        may be long so the caller's PE can be context-switched to a
        queued VPE in the meantime (Section 3.3)."""
        return (
            yield from self.env.syscall(syscalls.VPE_WAIT_YIELD, self.selector)
        )

    def revoke(self):
        """Generator: revoke the VPE capability — the kernel resets the
        PE, making it available again (Section 4.5.5)."""
        yield from self.env.syscall(syscalls.REVOKE, self.selector)
