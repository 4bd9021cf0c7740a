"""Tagged cycle accounting.

The paper's figures break execution time into stacked categories
("App", "Xfers", "OS").  The :class:`TimeLedger` accumulates, per tag,
every cycle of delay that the simulation charges, so the evaluation
harness can reconstruct the same stacks.

The benchmark setups in the paper are deliberately serial (Section 5.1:
"at no point in time multiple PEs were doing useful work in parallel"),
so the sum of charged cycles approximates wall-clock time; for parallel
experiments (Figure 6) the harness uses wall-clock spans instead.
"""

from __future__ import annotations


class Tag:
    """Canonical ledger tags used throughout the reproduction."""

    APP = "app"  # application computation
    OS = "os"  # OS/library software path (syscall handling, libm3, VFS...)
    XFER = "xfer"  # data transfers (DTU/NoC, or Linux memcpy)
    IDLE = "idle"  # explicit waiting (not part of any stack)
    FAULT = "fault"  # injected fault delay (repro.faults; empty by default)


class TimeLedger:
    """Accumulates cycles per tag; supports scoped measurement windows."""

    def __init__(self):
        self._totals: dict[str, int] = {}

    def charge(self, tag: str, cycles: int) -> None:
        """Attribute ``cycles`` to ``tag``."""
        if cycles < 0:
            raise ValueError(f"cannot charge negative cycles: {cycles}")
        if tag is None:
            return
        self._totals[tag] = self._totals.get(tag, 0) + cycles

    def snapshot(self) -> dict[str, int]:
        """A copy of all per-tag totals."""
        return dict(self._totals)

    def since(self, snapshot: dict[str, int]) -> dict[str, int]:
        """Per-tag difference between now and an earlier :meth:`snapshot`."""
        diff = {}
        for tag, total in self._totals.items():
            delta = total - snapshot.get(tag, 0)
            if delta:
                diff[tag] = delta
        return diff

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{t}={c}" for t, c in sorted(self._totals.items()))
        return f"<TimeLedger {inner}>"
