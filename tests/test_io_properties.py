import csv
import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson._io import dump_json, write_csv  # noqa: E402
from spinboson.spectral import ConvergenceReport  # noqa: E402

finite_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
)
finite_json = st.recursive(
    finite_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(value=finite_json)
def test_json_round_trips_finite_values(value):
    text = dump_json(value)
    assert text == json.dumps(value)
    assert json.loads(text) == value


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_refuses_non_finite(bad):
    with pytest.raises(RuntimeError, match="non-finite"):
        dump_json({"rows": [1.0, {"x": bad}]})
    with pytest.raises(RuntimeError, match="non-finite"):
        ConvergenceReport([16, 32], [0.0, bad], 1e-8, 1).to_json()
