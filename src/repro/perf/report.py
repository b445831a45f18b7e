"""Table formatting helpers shared by the benchmark harness."""

from __future__ import annotations

from collections.abc import Iterable, Mapping


def format_table(rows: Iterable[Mapping], title: str | None = None,
                 floatfmt: str = "{:.2f}") -> str:
    """Render a list of dict rows as an aligned text table.

    Rows may have heterogeneous keys: the columns are the union of all
    row keys in first-seen order, and missing cells render blank.
    """
    rows = list(rows)
    if not rows:
        return "(empty table)"
    cols: list[str] = []
    seen = set()
    for row in rows:
        for c in row.keys():
            if c not in seen:
                seen.add(c)
                cols.append(c)
    rendered = []
    for row in rows:
        rendered.append(
            [
                floatfmt.format(v) if isinstance(v, float) else str(v)
                for v in (row.get(c, "") for c in cols)
            ]
        )
    widths = [
        max(len(c), *(len(r[i]) for r in rendered)) for i, c in enumerate(cols)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(c.ljust(w) for c, w in zip(cols, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for r in rendered:
        lines.append("  ".join(v.rjust(w) for v, w in zip(r, widths)))
    return "\n".join(lines)
