import csv
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson._io import write_csv  # noqa: E402


@settings(max_examples=200, deadline=None, derandomize=True)
@given(values=st.lists(st.floats(), min_size=1, max_size=8))
@example(values=[-0.0, 5e-324, 1.7976931348623157e308, 0.1])
@example(values=[1.0, math.nan])
@example(values=[math.inf])
@example(values=[-math.inf, 2.0])
def test_writer_round_trips_finite_floats(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
    header = [f"c{i}" for i in range(len(values))]
    if not all(math.isfinite(x) for x in values):
        with pytest.raises(RuntimeError, match="non-finite"):
            write_csv(path, header, [values])
        return
    write_csv(path, header, [values])
    with open(path, newline="") as f:
        head, row = csv.reader(f)
    assert head == header
    assert [float(c).hex() for c in row] == [x.hex() for x in values]
