"""The one writer behind every CSV and JSON file the package produces.

CSV numbers are written with 17 significant digits and JSON numbers as
`json.dumps` writes them; both read back bit-exactly, and non-finite
values are refused in both. Each file is written to a temporary sibling
and renamed into place, so a reader never sees a partial file and a
refused value leaves nothing behind.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os

import numpy as np


def fmt(x) -> str:
    """Integers as they are, everything else as a 17-digit float."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        raise RuntimeError(f"non-finite value {x} about to be written")
    return f"{x:.17g}"


def dump_json(value) -> str:
    """`json.dumps`, refusing NaN and infinities as `fmt` does."""
    try:
        return json.dumps(value, allow_nan=False)
    except ValueError as exc:
        raise RuntimeError(f"non-finite value about to be written: {exc}") from None


def atomic_write(path: str | os.PathLike, text: str) -> None:
    tmp = os.fspath(path) + ".tmp"
    with open(tmp, "w", newline="") as f:
        f.write(text)
    os.replace(tmp, path)


def write_csv(path: str | os.PathLike, header: list[str], rows) -> None:
    """Write the header and rows; str cells go in verbatim, numbers through `fmt`."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([c if isinstance(c, str) else fmt(c) for c in row])
    atomic_write(path, buf.getvalue())
