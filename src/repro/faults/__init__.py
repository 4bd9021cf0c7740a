"""Deterministic fault injection for the NoC and the PEs.

See :mod:`repro.faults.plan` for the model; the short version:

>>> plan = FaultPlan(seed=42).drop(rate=1e-3).kill_pe(node=2, at=50_000)
>>> plan.install(platform)

A plan drops packets and kills cores, the two faults the experiments
draw.  With no plan installed every fast path is untouched — the
reliability and fault machinery is zero-overhead by default.
"""

from repro.faults.plan import (
    DROP,
    FaultPlan,
    FaultRecord,
    NodeFault,
    PacketRule,
)

__all__ = [
    "FaultPlan",
    "FaultRecord",
    "NodeFault",
    "PacketRule",
    "DROP",
]
