"""At g = 0 the labelled spectrum is read off the diagonal of H(0)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson import ModelParams, build_rabi, diagonalize, labelled_spectrum  # noqa: E402


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(2, 200),
    omega=st.sampled_from([1.0, 0.7, 2.5]),
    ratio=st.sampled_from([1.0, 3.0, 5.0, 1 / 3]) | st.floats(0.1, 6.0),
)
@example(n_fock=200, omega=1.0, ratio=1.0)  # the default argsort reorders ties here
@example(n_fock=2, omega=1.0, ratio=3.0)
def test_zero_coupling_spectrum_equals_dense_solve(n_fock, omega, ratio):
    # Omega = omega, 3 omega, 5 omega tie bare levels exactly; the dense solve
    # of a diagonal matrix keeps tied levels in index order, as a stable sort does
    p = ModelParams(omega, ratio * omega, 0.0, n_fock)
    got = labelled_spectrum(p)
    dense = diagonalize(build_rabi(p), p)
    assert np.array_equal(got.eigenvalues, dense.eigenvalues)
    assert got.labels == dense.labels
    assert np.array_equal(got.eigenvectors, dense.eigenvectors)
    assert got.trust_cutoff == dense.trust_cutoff
    assert got.ambiguous == dense.ambiguous == []
