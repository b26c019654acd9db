"""Plain-text table/series rendering in the style of the paper's exhibits,
and the one canonical JSON form of every artifact the harnesses write.

Every benchmark prints its reproduction of a table or figure through
these helpers so outputs are uniform and diffable (EXPERIMENTS.md embeds
them verbatim).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any


def render_json(payload: Any) -> str:
    """The canonical byte form of a JSON artifact: two-space indent,
    sorted keys, one trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def dump_json(payload: Any, path: str | pathlib.Path) -> pathlib.Path:
    """Write ``payload`` to ``path`` in its canonical form."""
    path = pathlib.Path(path)
    path.write_text(render_json(payload))
    return path


def format_table(title: str, headers: list, rows: list) -> str:
    """Render an aligned monospace table."""
    columns = len(headers)
    for row in rows:
        if len(row) != columns:
            raise ValueError("row width does not match headers")
    cells = [[str(h) for h in headers]] + [
        [_fmt(value) for value in row] for row in rows
    ]
    widths = [
        max(len(row[i]) for row in cells) for i in range(columns)
    ]
    lines = [title, "=" * max(len(title), 1)]
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(cells[0]))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells[1:]:
        lines.append(
            "  ".join(cell.rjust(widths[i]) if i else cell.ljust(widths[i])
                      for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_series(title: str, series: dict, unit: str = "") -> str:
    """Render named (label -> value) series, e.g. one Figure 8 bar group."""
    lines = [title, "=" * max(len(title), 1)]
    width = max((len(str(k)) for k in series), default=1)
    for label, value in series.items():
        lines.append(f"{str(label).ljust(width)}  {_fmt(value)}{unit}")
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


__all__ = ["dump_json", "format_series", "format_table", "render_json"]
