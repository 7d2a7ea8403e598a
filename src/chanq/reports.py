"""Plain-text tables with machine-readable JSON twins.

Reports must be byte-identical across runs for a fixed seed, so floats
are formatted explicitly and JSON keys are sorted.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def fmt_value(v, nd: int = 3) -> str:
    if v is None:
        return "-"
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.{nd}f}"  # nan, inf and -inf print as such


def render_table(headers: list, rows: list, title: str = "") -> str:
    cells = [[fmt_value(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if np.isfinite(v) else ("inf" if v > 0 else ("-inf" if v < 0 else "nan"))
    return obj


def write_report(prefix, text: str, doc: dict) -> tuple[Path, Path]:
    """Write PREFIX.txt and PREFIX.json; returns their paths."""
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    txt = prefix.with_name(prefix.name + ".txt")  # not with_suffix: a dotted prefix keeps its dot
    js = prefix.with_name(prefix.name + ".json")
    txt.write_text(text)
    js.write_text(json.dumps(_jsonable(doc), indent=1, sort_keys=True) + "\n")
    return txt, js
