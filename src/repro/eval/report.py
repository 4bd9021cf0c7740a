"""Plain-text table rendering for experiment reports."""

from __future__ import annotations


def _format(value) -> str:
    # bool is a subclass of int; check it first so flags render as
    # True/False instead of 1/0.
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:,.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def render_table(title: str, headers: list[str], rows: list[tuple]) -> str:
    """An aligned monospace table with a title rule."""
    cells = [[_format(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in cells:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def breakdown_rows(breakdown: dict, total: int) -> list[tuple]:
    """(component, cycles, share of ``total``) rows of a critical-path
    component breakdown, largest first."""
    return [
        (component, cycles, f"{100.0 * cycles / total:.1f}%")
        for component, cycles in sorted(
            breakdown.items(), key=lambda item: (-item[1], item[0])
        )
    ]


def stacks(ledger: dict) -> tuple[int, int, int]:
    """(app, xfers, os) cycles from a ledger delta — the figures' stacks.

    The ``fft`` tag (Figure 7) counts as application computation here;
    fig7 reports it separately.
    """
    app = ledger.get("app", 0) + ledger.get("fft", 0)
    xfers = ledger.get("xfer", 0)
    os_cycles = ledger.get("os", 0)
    return app, xfers, os_cycles
