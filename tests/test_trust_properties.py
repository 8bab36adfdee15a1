import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson import (  # noqa: E402
    ModelParams,
    labelled_spectrum,
    rabi_spectrum,
    spectral,
)
from spinboson.fockmodel import rabi_bands  # noqa: E402

EPS = np.finfo(float).eps


def eigenvalues_and_allowance(p: ModelParams) -> tuple[np.ndarray, float]:
    """The ascending eigenvalues of H_Rabi at p from eigenvalue-only chain
    solves, and their backward-error allowance n_fock eps S."""
    diag, couplings = rabi_bands(p)
    chains = spectral._chains(p.n_fock)
    w = np.concatenate([spectral.eigvalsh_tridiagonal(diag[r], couplings) for r in chains])
    scale = float(np.max(np.abs(diag)) + 2 * np.max(np.abs(couplings), initial=0.0))
    return np.sort(w), p.n_fock * EPS * scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(2, 32),
    Omega=st.floats(0.2, 6.0),
    g=st.floats(-2.0, 2.0),
)
def test_every_spectrum_trusts_the_scan(n_fock, Omega, g):
    """Both spectra trust `trusted_levels`' count, and the enclosure of each
    trusted level holds the eigenvalue of the 8N truncation: that lies at most
    TRUST_TOL omega below the level, and not above it (Ritz), up to the 8N
    solve's own rounding."""
    # Omega just off omega = 1 is where continuation from g = 0 refuses
    assume(Omega == 1.0 or abs(Omega - 1.0) > 0.01)
    p = ModelParams(1.0, Omega, g, n_fock)
    trust = spectral.trusted_levels(p)
    assert rabi_spectrum(p).trust_cutoff == labelled_spectrum(p).trust_cutoff == trust
    assert trust <= p.dim
    theta = rabi_spectrum(p).eigenvalues[:trust]
    far, widen = eigenvalues_and_allowance(ModelParams(1.0, Omega, g, 8 * n_fock))
    below = theta - far[:trust]
    assert np.all(below >= -2 * widen)
    assert np.all(below <= spectral.TRUST_TOL * p.omega + 2 * widen)
