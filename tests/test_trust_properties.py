import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson import (  # noqa: E402
    ModelParams,
    convergence_scan,
    labelled_spectrum,
    rabi_spectrum,
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(2, 32),
    Omega=st.floats(0.2, 6.0),
    g=st.floats(-2.0, 2.0),
)
def test_every_spectrum_trusts_the_scan(n_fock, Omega, g):
    # Omega just off omega = 1 is where continuation from g = 0 refuses
    assume(Omega == 1.0 or abs(Omega - 1.0) > 0.01)
    p = ModelParams(1.0, Omega, g, n_fock)
    trust = convergence_scan(p, [n_fock, 2 * n_fock]).trust_cutoff
    assert rabi_spectrum(p).trust_cutoff == labelled_spectrum(p).trust_cutoff == trust
    assert trust <= p.dim
