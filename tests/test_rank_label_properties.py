"""Wherever `labelled_spectrum` takes rank labels and the continuation from
g = 0 succeeds, both give the same spectrum, up to the vectors' signs."""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson import spectral  # noqa: E402
from spinboson.fockmodel import ModelParams, near_tied, rabi_bands  # noqa: E402


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(2, 48),
    omega=st.floats(0.5, 2.0),
    ratio=st.floats(0.2, 6.0),
    coupling=st.floats(-1.5, 1.5),
)
def test_rank_labels_equal_the_continuation(n_fock, omega, ratio, coupling):
    params = ModelParams(omega, ratio * omega, coupling * omega, n_fock)
    energies, _ = rabi_bands(params)
    assume(params.g != 0)
    assume(not any(near_tied(energies[rows], omega) for rows in spectral._chains(n_fock)))
    rank = spectral.labelled_spectrum(params)
    with mock.patch.object(spectral, "near_tied", return_value=True):
        try:
            continued = spectral.labelled_spectrum(params)
        except spectral.GridRefinementError:
            assume(False)

    assert np.array_equal(rank.eigenvalues, continued.eigenvalues)
    assert rank.labels == continued.labels
    assert rank.trust_cutoff == continued.trust_cutoff
    signs = np.sign(np.einsum("ij,ij->j", rank.eigenvectors, continued.eigenvectors))
    assert np.array_equal(rank.eigenvectors * signs, continued.eigenvectors)
