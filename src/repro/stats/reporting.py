"""Plain-text tables for experiment output.

The benchmark harness prints each figure as an aligned text table (the
same rows/series the paper plots); these helpers keep the formatting in
one place.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render rows as an aligned monospace table."""
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered: List[str] = []
        for cell in row:
            if isinstance(cell, float):
                rendered.append(float_format.format(cell))
            else:
                rendered.append(str(cell))
        rendered_rows.append(rendered)

    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    parts: List[str] = []
    if title:
        parts.append(title)
        parts.append("=" * len(title))
    parts.append(line(list(headers)))
    parts.append(line(["-" * w for w in widths]))
    parts.extend(line(row) for row in rendered_rows)
    return "\n".join(parts)


def series_table(
    series: Mapping[str, Mapping[str, float]],
    row_order: Sequence[str],
    title: str | None = None,
    row_header: str = "workload",
    float_format: str = "{:.3f}",
) -> str:
    """A table with one row per workload and one column per series.

    ``series`` maps column name -> {row name -> value}; missing cells
    render as ``-``.
    """
    headers = [row_header, *series.keys()]
    rows: List[List[object]] = []
    for row_name in row_order:
        row: List[object] = [row_name]
        for column in series.values():
            value = column.get(row_name)
            row.append("-" if value is None else value)
        rows.append(row)
    return format_table(headers, rows, title=title, float_format=float_format)
