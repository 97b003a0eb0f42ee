"""Deterministic report files: CSV, JSON and decorative SVG plots.

Every file embeds the fully resolved configuration and the pseudorandom
algorithm identifier.  CSV uses comma separators, '.' decimals, scientific
notation with 17 significant digits (round-trip exact for doubles), LF line
endings and a mandatory header row; comment lines starting with '#' carry
the metadata.  The SVG writer is hand-rolled so repeated runs are
byte-identical (figure libraries embed per-process ids).

The CSV writer picks one format per column from the types it holds: a
column of floats (numpy float64 included) prints with ``'%.16e'``, a column
of strings is copied as it is (callers may pass preformatted text), and any
other column (bools, ints or ``None`` in it) goes value by value through
:func:`format_value`.  Each row is then one ``%``-format, streamed to the
file; the bytes are those of :func:`format_value` on every value.
"""

from __future__ import annotations

import json
import math
import os
from operator import itemgetter

from .signals import ALGORITHM_ID


def format_value(v) -> str:
    # floats first, the common case (Python floats and numpy float64 alike);
    # '%.16e' prints nan, inf, -inf and -0.0 as they are
    if isinstance(v, float):
        return "%.16e" % v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if v is None:
        return ""
    return str(v)


def _metadata_block(metadata: dict) -> str:
    payload = dict(metadata)
    payload.setdefault("generator", ALGORITHM_ID)
    return "# " + json.dumps(payload, sort_keys=True)


def _column_spec(values):
    """'%.16e' for an all-float column, '%s' for all-str, None for the rest."""
    types = set(map(type, values))
    if all(issubclass(t, float) for t in types):
        return "%.16e"
    if all(issubclass(t, str) for t in types):
        return "%s"
    return None


def write_csv(path: str, columns, rows, metadata: dict) -> None:
    """Write rows (sequences aligned with ``columns``) under a metadata comment.

    ``rows`` is a sized sequence of lists or tuples; see the module docstring
    for the per-column formats.
    """
    specs = [_column_spec(map(itemgetter(i), rows)) for i in range(len(columns))]
    row_format = ",".join(spec or "%s" for spec in specs) + "\n"
    cells = map(tuple, rows)
    if None in specs:
        cells = (tuple(v if s else format_value(v) for s, v in zip(specs, row)) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_metadata_block(metadata) + "\n" + ",".join(columns) + "\n")
        fh.writelines(map(row_format.__mod__, cells))


def write_json(path: str, payload: dict, metadata: dict) -> None:
    body = {"metadata": {**metadata, "generator": metadata.get("generator", ALGORITHM_ID)}}
    body.update(payload)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(body, sort_keys=True, indent=2, allow_nan=True) + "\n")


def write_svg_lineplot(
    path: str,
    xs,
    series: dict,
    title: str,
    x_label: str,
    y_label: str,
) -> None:
    """Minimal deterministic log-log line plot; decorative only, no logic reads it."""
    width, height = 640, 420
    margin = 60
    palette = ["#1f6fb2", "#c44e52", "#55a868", "#8172b2", "#ccaa14"]

    def prep(vals):
        return [math.log10(max(float(v), 1e-320)) for v in vals]

    px = prep(xs)
    all_y = [v for vals in series.values() for v in prep(vals)]
    x_lo, x_hi = min(px), max(px)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def map_x(v):
        return margin + (v - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def map_y(v):
        return height - margin - (v - y_lo) / (y_hi - y_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" font-size="12">{x_label}</text>',
        f'<text x="16" y="{height // 2}" font-size="12" transform="rotate(-90 16 {height // 2})" '
        f'text-anchor="middle">{y_label}</text>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#444"/>',
    ]
    for i, (name, vals) in enumerate(series.items()):
        py = prep(vals)
        pts = " ".join(f"{map_x(a):.2f},{map_y(b):.2f}" for a, b in zip(px, py))
        color = palette[i % len(palette)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>')
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * (i + 1)}" '
            f'font-size="11" fill="{color}">{name}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
