"""The one writer behind every CSV and JSON file the package produces.

CSV numbers are written with 17 significant digits and JSON numbers as
`json.dumps` writes them; both read back bit-exactly, and non-finite
values are refused in both. Each file is written to a temporary sibling
and renamed into place, so a reader never sees a partial file and a
refused value leaves nothing behind.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np


_BLOCK_ROWS = 1024  # rows formatted together: bounds the cell strings alive at once


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


def _quote(cell: str) -> str:
    """A str cell as `csv.writer` writes it: quoted when it holds a comma, a
    quote or a line break, with its quotes doubled."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _column(cells: tuple) -> list[str]:
    """One column's cells as text. A column of floats is checked with one
    `np.isfinite`, and each distinct value (by its bits, so -0.0 and 0.0
    stay apart) is formatted once; a column of integers goes as it is, any
    other column cell by cell, str cells through `_quote`."""
    kinds = set(map(type, cells))
    if all(issubclass(k, (float, np.floating)) for k in kinds):
        x = np.array(cells, dtype=float)
        finite = np.isfinite(x)
        if not finite.all():
            fmt(x[~finite][0])  # refuses it
        bits, at = np.unique(x.view(np.int64), return_inverse=True)
        text = np.array(list(map("{:.17g}".format, bits.view(float).tolist())), dtype=object)
        return text[at].tolist()
    if all(k is int or issubclass(k, np.integer) for k in kinds):
        return list(map(str, cells))
    return [_quote(c) if isinstance(c, str) else fmt(c) for c in cells]


def _record(cells) -> str:
    # `csv.writer` quotes a lone empty field, so that the record is not a blank line
    return '""' if len(cells) == 1 and cells[0] == "" else ",".join(cells)


def write_csv(path: str | os.PathLike, header: list[str], rows) -> None:
    """Write the header and rows byte for byte as `csv.writer` would, str cells
    verbatim and numbers through `fmt`, formatted a column of a block of rows
    at a time. Rows must be equally long."""
    rows = iter(rows)
    text = [_record([_quote(h) for h in header]) + "\r\n"]
    while block := list(itertools.islice(rows, _BLOCK_ROWS)):
        columns = [_column(c) for c in zip(*block, strict=True)]
        join = _record if len(columns) == 1 else ",".join  # only one field can be lone
        text.append("\r\n".join(map(join, zip(*columns))) + "\r\n")
    atomic_write(path, "".join(text))
