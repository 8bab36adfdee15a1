"""The shared sort-and-sweep collision search and the omega = Omega quadruple
check built on it.

`_close_pairs` must return every pair of keys within its reach, measured
exactly, and the quadruple check must reproduce the brute-force loop
`reference_quadruple_check` byte for byte, violation order included.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson import degenerate_quadruple_check  # noqa: E402
from spinboson.resonance import _close_pairs  # noqa: E402
from test_resonance_properties import reference_quadruple_check  # noqa: E402


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    st.integers(0, 40),
    st.floats(-15, 3).map(lambda e: 10.0**e),  # omega log-uniform in [1e-15, 1e3]
)
@example(24, 5e-324)  # every gap is zero in absolute terms, not in units of omega
@example(40, 5e-324)
def test_quadruple_check_matches_loop_at_any_scale(window, omega):
    got = degenerate_quadruple_check(window, omega)
    assert json.dumps(got) == json.dumps(reference_quadruple_check(window, omega))


@st.composite
def planted_keys(draw):
    """Shuffled keys whose neighbours lie at, just below, just above, twice
    or a random multiple of `reach` apart, or coincide."""
    reach = draw(
        st.sampled_from([0.25, 0.5, 1.0, 2e-12]) | st.floats(-13, 1).map(lambda e: 10.0**e)
    )
    near = [0.0, reach, np.nextafter(reach, 0.0), np.nextafter(reach, np.inf), 2 * reach]
    gaps = draw(
        st.lists(
            st.sampled_from(near) | st.floats(0, 3).map(lambda f: f * reach), max_size=30
        )
    )
    base = draw(st.sampled_from([0.0, -0.75]) | st.floats(-10, 10))
    keys = base + np.cumsum([0.0] + gaps)
    return draw(st.permutations(keys.tolist())), reach


@settings(max_examples=200, deadline=None, derandomize=True)
@given(planted_keys())
@example(([], 0.25))
@example(([0.0, 0.25, 0.5, 1.0], 0.25))  # differences exactly at reach
@example(([0.0, float(np.nextafter(0.25, 0.0))], 0.25))  # just below
@example(([0.0, float(np.nextafter(0.25, 1.0))], 0.25))  # just above
@example(([2.0, 1.0, 2.0, 1.0], 1e-12))  # ties
@example(([-0.75, 0.25 + 2.0**-54], 1.0))  # fl(d) = reach although d > reach
def test_close_pairs_holds_every_pair_within_reach(planted):
    keys, reach = planted
    p, q = _close_pairs(np.asarray(keys, dtype=float), reach)
    got = list(zip(p.tolist(), q.tolist()))
    assert all(a < b for a, b in got)
    assert len(set(got)) == len(got)
    exact = [Fraction(k) for k in keys]
    within = {
        (a, b)
        for a in range(len(keys))
        for b in range(a + 1, len(keys))
        if abs(exact[a] - exact[b]) <= Fraction(reach)
    }
    assert within <= set(got)
