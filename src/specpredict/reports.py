"""Deterministic report files: CSV, JSON and decorative SVG plots.

Every file embeds the fully resolved configuration and the pseudorandom
algorithm identifier.  CSV uses comma separators, '.' decimals, scientific
notation with 17 significant digits (round-trip exact for doubles), LF line
endings and a mandatory header row; comment lines starting with '#' carry
the metadata.  The SVG writer is hand-rolled so repeated runs are
byte-identical (figure libraries embed per-process ids).

:func:`write_csv` takes one of two inputs.  A float table, as the time
series and spectra are written, is a :class:`ColumnBlocks`, which forms each
block's columns when the writer asks for them, so no n-row table is
stacked; a vectorized ``'%.16e'`` formatter prints it one block of
``_BLOCK_ROWS`` rows at a time, and its bytes are those of ``'%.16e' % v``
on every value.  Any other rows, such as the small tables of the
experiments, go value by value through :func:`format_value`.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .signals import ALGORITHM_ID

# rows per block of a float CSV, so that no n-row temporaries stay alive
_BLOCK_ROWS = 4096
# bytes per printed float: sign, 17 digits and '.', 'e', exponent sign, three
# exponent digits and the separator; unused bytes are dropped before writing
_SLOT = 25
# a scaled value this close to a rounding tie is printed by '%.16e' itself;
# the double-double product below is good to about 1e-14
_TIE_WINDOW = 1e-9


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


# decimal exponents of float64 values run from -324 to 308; the table keeps
# one more either side for a decade estimate that is one off
_K_MIN, _K_MAX = -325, 309


@functools.cache
def _decade_scales() -> tuple:
    """``(g, hi, lo)`` per decimal exponent k from ``_K_MIN`` to ``_K_MAX``, with
    ``10**(16 - k) == 2**g * (hi + lo)`` to double-double precision and hi in
    [0.5, 2); exact integer arithmetic, then correctly rounded divisions.
    Built on first use."""
    table = []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        g = num.bit_length() - den.bit_length()
        num, den = (num, den << g) if g >= 0 else (num << -g, den)
        hi = num / den
        a, b = hi.as_integer_ratio()
        table.append((g, hi, (num * b - a * den) / (den * b)))
    g, hi, lo = zip(*table)
    return np.array(g, np.int64), np.array(hi), np.array(lo)


def _scaled(m, e, k):
    """Floor (int64) and fraction of ``m * 2**(e - 53) * 10**(16 - k)`` for
    integer-valued float mantissas ``m`` < 2**53."""
    g, hi, lo = (column[k - _K_MIN] for column in _decade_scales())
    m = np.ldexp(m, e - 53 + g)
    # Dekker's two-product: p + err == m * hi exactly
    t = 134217729.0 * m
    m_h = t - (t - m)
    m_l = m - m_h
    t = 134217729.0 * hi
    hi_h = t - (t - hi)
    hi_l = hi - hi_h
    p = m * hi
    err = ((m_h * hi_h - p) + m_h * hi_l + m_l * hi_h) + m_l * hi_l
    whole = np.floor(p)
    rest = (p - whole) + (err + m * lo)
    rest_floor = np.floor(rest)
    return whole.astype(np.int64) + rest_floor.astype(np.int64), rest - rest_floor


def _decimal(mag):
    """17-digit significands (int64 in [10**16, 10**17)) and decimal exponents
    of the positive finite floats ``mag``, rounded half to even as '%.16e'."""
    frac, e = np.frexp(mag)
    m = np.ldexp(frac, 53)
    k = np.floor(np.log10(mag)).astype(np.int64)
    whole, rest = _scaled(m, e, k)
    # log10 can miss the decade by one next to a power of ten; the unrounded
    # floor decides it, since rounding first turns 9.99...95e-300 into 1e-299
    shift = (whole >= 10**17).astype(np.int64) - (whole < 10**16)
    redo = np.flatnonzero(shift)
    if redo.size:
        k[redo] += shift[redo]
        whole[redo], rest[redo] = _scaled(m[redo], e[redo], k[redo])
    digits = whole + (rest > 0.5)
    carry = digits == 10**17
    digits[carry] = 10**16
    k[carry] += 1
    doubtful = (np.abs(rest - 0.5) < _TIE_WINDOW) | (whole < 10**16) | (whole >= 10**17)
    for i in np.flatnonzero(doubtful):
        significand, exponent = ("%.16e" % mag[i]).split("e")
        digits[i] = int(significand.replace(".", ""))
        k[i] = int(exponent)
    return digits, k


@functools.cache
def _digit_table() -> np.ndarray:
    """The ASCII digits of 0000..9999, four bytes packed in each uint32, so
    that one gather fetches four digits.  Built on first use."""
    text = "".join(map("%04d".__mod__, range(10000))).encode()
    return np.frombuffer(text, np.uint32)


def _float_rows(block: np.ndarray) -> bytes:
    """The CSV lines of a 2-D float64 block, each value printed as '%.16e'."""
    values = block.ravel()
    size = values.size
    finite = np.isfinite(values)
    nonzero = finite & (values != 0.0)
    # zeros keep significand 0 and exponent 0: 0.0000000000000000e+00
    digits = np.zeros(size, np.int64)
    exponent = np.zeros(size, np.int64)
    digits[nonzero], exponent[nonzero] = _decimal(np.abs(values[nonzero]))

    table = _digit_table()
    lead, tail = np.divmod(digits, 10**16)
    quads = np.stack([tail // 10**12, tail // 10**8 % 10**4, tail // 10**4 % 10**4, tail % 10**4], axis=1)
    out = np.empty((size, _SLOT), np.uint8)
    out[:, 0] = ord("-")
    out[:, 1] = lead + ord("0")
    out[:, 2] = ord(".")
    out[:, 3:19] = table[quads].view(np.uint8)
    out[:, 19] = ord("e")
    out[:, 20:24] = table[np.abs(exponent), None].view(np.uint8)
    out[:, 20] = np.where(exponent < 0, ord("-"), ord("+"))
    fields = out.reshape(block.shape + (_SLOT,))
    fields[:, :, -1] = ord(",")
    fields[:, -1, -1] = ord("\n")

    keep = np.ones((size, _SLOT), bool)
    nan = np.isnan(values)
    keep[:, 0] = np.signbit(values) & ~nan
    keep[:, 21] = np.abs(exponent) >= 100
    special = np.flatnonzero(~finite)
    if special.size:
        names = np.where(nan[special, None], np.frombuffer(b"nan", np.uint8), np.frombuffer(b"inf", np.uint8))
        out[special, 1:4] = names
        keep[special, 4:-1] = False
    return out[keep].tobytes()


@dataclass(frozen=True)
class ColumnBlocks:
    """A float table of ``rows`` rows that :func:`write_csv` forms a block at a time.

    ``block(start, stop)`` gives the columns of rows start..stop-1, one
    float64 array each.  ``len()`` is the number of rows.
    """

    rows: int
    block: Callable

    def __len__(self) -> int:
        return self.rows


def write_csv(path: str, columns, rows, metadata: dict) -> None:
    """Write rows (sequences aligned with ``columns``) under a metadata comment.

    ``rows`` is a :class:`ColumnBlocks`, written through the vectorized
    formatter one block of rows at a time, or any sized sequence of rows,
    whose values go through :func:`format_value`.  ``len(rows)`` is the
    number of data rows in either case.
    """
    with open(path, "wb") as fh:
        fh.write((_metadata_block(metadata) + "\n" + ",".join(columns) + "\n").encode("utf-8"))
        if isinstance(rows, ColumnBlocks):
            for start in range(0, len(rows), _BLOCK_ROWS):
                block = rows.block(start, min(start + _BLOCK_ROWS, len(rows)))
                if len(block) != len(columns):
                    raise ValueError(f"{len(columns)} columns but blocks of {len(block)} columns")
                fh.write(_float_rows(np.column_stack(block)))
        else:
            fh.writelines((",".join(map(format_value, row)) + "\n").encode("utf-8") for row in rows)


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

