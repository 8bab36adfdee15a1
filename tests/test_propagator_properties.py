import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson import (  # noqa: E402
    ModelParams,
    Pulse,
    StateVector,
    build_control,
    build_rabi,
    propagate,
)

bang_bang = st.lists(
    st.tuples(st.floats(0.01, 5.0), st.booleans()), min_size=1, max_size=30
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(2, 12),
    Omega=st.floats(0.2, 6.0),
    g=st.floats(-1.0, 1.0),
    delta=st.floats(0.001, 0.1),
    segments=bang_bang,
    seed=st.integers(0, 2**32 - 1),
)
def test_propagate_is_unitary_and_reversible(n_fock, Omega, g, delta, segments, seed):
    p = ModelParams(1.0, Omega, g, n_fock)
    h0, b = build_rabi(p), build_control(p)
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=p.dim) + 1j * rng.normal(size=p.dim)
    psi0 = StateVector(raw / np.linalg.norm(raw))
    pulse = Pulse([(d, delta if on else 0.0) for d, on in segments], delta)
    forward = propagate(h0, b, pulse, psi0)
    assert abs(np.linalg.norm(forward.amplitudes) - 1.0) <= 1e-12
    # exp(-i(-H)t) undoes exp(-iHt), so the reversed pulse under -H0, -B returns psi0
    h0.entries, b.entries = -h0.entries, -b.entries
    back = propagate(h0, b, Pulse(pulse.segments[::-1], delta), forward)
    assert np.max(np.abs(back.amplitudes - psi0.amplitudes)) <= 1e-11
