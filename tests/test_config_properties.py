import contextlib
import io
import json
import math
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson.cli import COMMANDS, EXIT_INPUT, REQUIRED, SCHEMA, main  # noqa: E402

MODEL = {"omega": 1.0, "Omega": 1.05, "g": 0.2, "n_fock": 8}
TRANSFER = {"source": {"n": 0, "s": -1}, "target": {"n": 1, "s": -1}, "delta": 0.02}

text = st.text(max_size=4)
objects = st.dictionaries(text, st.integers(), min_size=1, max_size=2)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
beyond_float = st.integers(min_value=2**1024) | st.integers(max_value=-(2**1024))
bad_int = st.one_of(st.floats(), text, st.booleans(), st.none(), objects)
bad_float = st.one_of(non_finite, beyond_float, text, st.booleans(), st.none(), objects)


def with_bad_element(good, bad):
    """A list with one refused element among accepted ones."""
    return st.tuples(st.lists(good, max_size=2), bad, st.lists(good, max_size=2)).map(
        lambda t: [*t[0], t[1], *t[2]]
    )


bad_int_list = with_bad_element(st.integers(), bad_int)
bad_float_list = with_bad_element(st.floats(-1, 1), bad_float)
bad_spin = st.integers().filter(lambda s: s not in (-1, 1))

# Only values the kind refuses: an accepted one could start real work
# (a huge n_fock or max_periods).
REFUSED = {
    "int": st.one_of(
        st.floats(), text, st.booleans(), st.lists(st.integers(), max_size=2), objects
    ),
    "float": st.one_of(
        non_finite,
        beyond_float,
        text,
        st.booleans(),
        st.lists(st.floats(), max_size=2),
        objects,
    ),
    "str": st.one_of(
        st.integers(), st.floats(), st.booleans(), st.lists(text, max_size=2), objects
    ),
    "list[int]": st.one_of(text, st.integers(), st.booleans(), objects, bad_int_list),
    "list[float]": st.one_of(text, st.floats(), st.booleans(), objects, bad_float_list),
    "label": st.one_of(
        text,
        st.integers(),
        st.lists(st.integers(), max_size=2),
        st.fixed_dictionaries({"n": st.integers(max_value=-1), "s": st.just(1)}),
        st.fixed_dictionaries({"n": st.just(0), "s": bad_spin}),
        st.fixed_dictionaries({"n": bad_int, "s": st.just(1)}),
        st.fixed_dictionaries({"n": st.just(0), "s": bad_int}),
        st.fixed_dictionaries({"n": st.integers(0, 7)}),
        st.fixed_dictionaries({"n": st.just(0), "s": st.just(1), "x": st.integers()}),
    ),
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_refused_values_exit_2_without_traceback(data):
    key = data.draw(st.sampled_from(sorted(SCHEMA)), label="key")
    kind, default = SCHEMA[key]
    refused = REFUSED[kind] | st.none() if default is REQUIRED else REFUSED[kind]
    value = data.draw(refused, label="value")
    section, _, name = key.rpartition(".")
    command = section if section in COMMANDS else "spectrum"
    with tempfile.TemporaryDirectory() as tmp:
        cfg = {"model": dict(MODEL), "transfer": dict(TRANSFER)}
        cfg["output_dir"] = os.path.join(tmp, "out")
        (cfg.setdefault(section, {}) if section else cfg)[name] = value
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--config", path])
        assert code == EXIT_INPUT
        assert f"'{key}'" in err.getvalue()
        assert os.listdir(tmp) == ["config.json"]
