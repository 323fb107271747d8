"""Plain-text reporting for experiment outputs.

The benchmark harness regenerates the paper's tables and figure series as
ASCII tables / CSV text, since the environment is headless.  These helpers
keep the formatting consistent across experiments.
"""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["ascii_table", "series_csv"]


def ascii_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render rows as a fixed-width ASCII table."""
    str_rows = [[_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def series_csv(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render rows as CSV text (for copy-paste plotting)."""
    lines = [",".join(headers)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
