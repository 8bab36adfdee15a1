import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson import ModelParams, labelled_spectrum, rabi_spectrum  # noqa: E402


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(4, 48),
    Omega=st.floats(0.2, 6.0),
    g=st.floats(-1.0, 1.0).filter(lambda g: g != 0),
)
def test_chain_spectrum_equals_labelled_eigenvalues(n_fock, Omega, g):
    # Omega just off omega = 1 is where continuation from g = 0 refuses
    assume(Omega == 1.0 or abs(Omega - 1.0) > 0.01)
    p = ModelParams(1.0, Omega, g, n_fock)
    spec = rabi_spectrum(p)
    # the continuation's last step solves the same chains at exactly g
    assert np.array_equal(spec.eigenvalues, labelled_spectrum(p).eigenvalues)
    assert spec.labels == {}
