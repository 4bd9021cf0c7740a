"""VPE checkpoints: deterministic in-sim snapshots of PE-local state.

A checkpoint captures everything a VPE keeps on its PE — the data-SPM
image, the DTU endpoint registers, the SPM allocator mark.  The kernel
uses checkpoints for live migration: ``migrate_vpe`` re-materialises
the state on a free PE, in this domain or a peer's, and redirects
in-flight messages.

Checkpoints are in-sim objects, not serialised blobs, but they are
deterministic: two runs with the same seed produce byte-identical SPM
images and identical register tuples, which is what the determinism
gates in ``eval/domain_failover`` rely on.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class VpeCheckpoint:
    """One VPE's PE-local state, snapshotted for a migration."""

    vpe_id: int
    name: str
    #: the node the VPE ran on when the snapshot was taken.
    node: int
    #: full data-SPM image.
    spm_image: bytes
    #: the PE's bump-allocator position, so live restore keeps buffer
    #: addresses stable.
    alloc_mark: int
    #: ``(index, EndpointRegisters)`` pairs for every configured
    #: endpoint, cloned via ``dataclasses.replace`` so later mutation
    #: of the live registers cannot leak into the snapshot.
    eps: tuple

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VpeCheckpoint vpe={self.vpe_id} node={self.node} "
            f"{len(self.spm_image)}B spm, {len(self.eps)} eps>"
        )


@dataclasses.dataclass(frozen=True)
class MigrationDescriptor:
    """A checkpoint serialized for the ``migrate_in`` RPC.

    Everything the *target* kernel needs to re-materialize a VPE in its
    own domain: the checkpoint (image and endpoint registers), a
    capability manifest rich enough to rebuild memory grants (regions
    left behind in the source domain become foreign-flagged caps), and
    the software context.  In a real system the software state lives in
    the SPM image itself; the in-sim ``env`` object stands in for it,
    the same way ``vpe_start`` carries entry callables.
    """

    checkpoint: VpeCheckpoint
    #: ``(selector, kind value, detail)`` rows; ``detail`` is
    #: ``(node, address, size, perm value, foreign)`` for memory caps
    #: and ``None`` for everything else.
    caps: tuple
    migrations: int
    env: object

    @classmethod
    def capture(cls, vpe, checkpoint: VpeCheckpoint,
                env=None) -> "MigrationDescriptor":
        """Wrap ``checkpoint`` plus ``vpe``'s capability manifest."""
        from repro.m3.kernel.capability import CapKind

        manifest = []
        for cap in vpe.captable.caps():
            if cap.kind == CapKind.MEM:
                obj = cap.obj
                detail = (obj.node, obj.address, obj.size, obj.perm.value,
                          cap.foreign)
            else:
                detail = None
            manifest.append((cap.selector, cap.kind.value, detail))
        return cls(checkpoint, tuple(manifest), vpe.migrations, env)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MigrationDescriptor {self.checkpoint!r}, {len(self.caps)} caps>"
