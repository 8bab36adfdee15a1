"""`write_csv` formats a column at a time and writes the bytes that
`csv.writer` with `fmt` per numeric cell writes."""

import csv
import io
import math
import os

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson._io import fmt, write_csv  # noqa: E402


def reference(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([c if isinstance(c, str) else fmt(c) for c in row])
    return buf.getvalue()


floats = st.floats(allow_nan=False, allow_infinity=False)
int64s = st.integers(-(2**63), 2**63 - 1).map(np.int64)
texts = st.text(alphabet=st.sampled_from('a1 ,"\n\r-.'), max_size=5)
cells = {
    "int": st.integers(),
    "np.int64": int64s,
    "float": floats,
    "np.float64": floats.map(np.float64),
    "str": texts,
}
cells["mixed"] = st.one_of(*cells.values())


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(cells)), min_size=1, max_size=4))
    n_rows = draw(st.integers(0, 6))
    columns = [draw(st.lists(cells[k], min_size=n_rows, max_size=n_rows)) for k in kinds]
    header = draw(st.lists(texts, min_size=len(kinds), max_size=len(kinds)))
    return header, [list(row) for row in zip(*columns)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(table=tables())
@example(table=(["x"], [[-0.0], [5e-324], [""], ['a,"b"\n']]))
@example(table=([""], [[""], [1.5], [np.float64(-0.0)]]))
@example(table=(["g", "n"], [[0.1, 2**70], [np.float64(1e308), np.int64(-3)]]))
@example(table=(["t", "p"], [[True, 1.0], [False, np.float32(0.1)]]))
def test_bytes_equal_csv_writer(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.getbasetemp() / "table.csv"
    write_csv(path, header, rows)
    with open(path, newline="") as f:
        assert f.read() == reference(header, rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
@pytest.mark.parametrize("others", [[1.0, 2.0], [1, "a"]], ids=["floats", "mixed"])
def test_non_finite_leaves_no_file(tmp_path, bad, others):
    path = tmp_path / "table.csv"
    with pytest.raises(RuntimeError, match="non-finite"):
        write_csv(path, ["x"], [[c] for c in [*others, bad]])
    assert os.listdir(tmp_path) == []
