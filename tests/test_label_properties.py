import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson import ModelParams, basis_order, build_parity, labelled_spectrum  # noqa: E402


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(2, 24),
    Omega=st.one_of(st.just(1.0), st.floats(0.2, 6.0)),
    g=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
)
def test_labels_are_a_bijection_onto_parity_eigenvectors(n_fock, Omega, g):
    # Omega just off omega = 1 is where continuation from g = 0 refuses, and
    # so is a coupling 0 < |g| < ~1e-16 at omega = Omega, which the seed of
    # the tied pairs cannot resolve (test_cli.py pins that refusal)
    assume(Omega == 1.0 or abs(Omega - 1.0) > 0.01)
    assume(g == 0.0 or abs(g) > 1e-12)
    p = ModelParams(1.0, Omega, g, n_fock)
    spec = labelled_spectrum(p)

    assert sorted(spec.labels) == list(range(p.dim))
    assert sorted(spec.labels.values()) == sorted(basis_order(n_fock))
    parity = build_parity(p).entries
    for k, lab in spec.labels.items():
        v = spec.eigenvectors[:, k]
        # the branch lives on its label's parity chain, so P v is exact
        assert np.array_equal(parity @ v, lab.s * (-1) ** lab.n * v)
