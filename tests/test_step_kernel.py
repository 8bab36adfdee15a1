"""`SegmentPropagator.step` against the complex-arithmetic reference product.

The step runs two real matrix products on the (re, im) columns of the state;
the reference upcasts the real eigenbasis and multiplies in complex. The two
differ by roundoff only.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson import ModelParams, build_control, build_rabi  # noqa: E402
from spinboson.control import SegmentPropagator  # noqa: E402
from spinboson.spectral import dense_eigh  # noqa: E402

KERNEL_TOL = 1e-13


def reference_step(h0, b, psi, duration, amplitude):
    w, v = dense_eigh(h0.entries + amplitude * b.entries, "reference")
    return v @ (np.exp(-1j * w * duration) * (v.T @ psi))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(2, 32),
    Omega=st.floats(0.2, 6.0),
    g=st.floats(-1.0, 1.0),
    delta=st.floats(0.001, 0.1),
    driven=st.booleans(),
    duration=st.floats(0.0, 50.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_step_matches_complex_reference(n_fock, Omega, g, delta, driven, duration, seed):
    p = ModelParams(1.0, Omega, g, n_fock)
    h0, b = build_rabi(p), build_control(p)
    amplitude = delta if driven else 0.0
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=p.dim) + 1j * rng.normal(size=p.dim)
    psi = raw / np.linalg.norm(raw)
    before = psi.copy()
    prop = SegmentPropagator(h0, b, delta)

    out = prop.step(psi, duration, amplitude)
    ref = reference_step(h0, b, psi, duration, amplitude)
    assert np.max(np.abs(out - ref)) <= KERNEL_TOL
    assert np.array_equal(psi, before)
    assert out.dtype == np.complex128 and out.ndim == 1 and out.flags.c_contiguous
    assert not np.shares_memory(out, psi)

    real = prop.step(psi.real, duration, amplitude)
    assert real.dtype == np.complex128
    assert np.max(np.abs(real - reference_step(h0, b, psi.real, duration, amplitude))) <= KERNEL_TOL

    buf = np.zeros(2 * p.dim, dtype=complex)
    buf[::2] = psi
    view = buf[::2]
    assert not view.flags.c_contiguous
    assert np.array_equal(prop.step(view, duration, amplitude), out)
    assert np.array_equal(buf[::2], psi) and not np.any(buf[1::2])
