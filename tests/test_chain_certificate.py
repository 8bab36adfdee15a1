"""A chain solve proves orthonormality from residual enclosures in O(N^2) and
forms the Gram matrix only when two enclosures touch or the bound is loose."""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from spinboson import ModelParams, SolverError, spectral
from spinboson.fockmodel import rabi_bands

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def residuals(d, e, w, v):
    tv = d[:, None] * v
    tv[:-1] += e[:, None] * v[1:]
    tv[1:] += e[:, None] * v[:-1]
    return np.linalg.norm(tv - v * w, axis=0)


def exact_defect(v) -> float:
    """max|V^T V - I| of the stored vectors, summed in extended precision."""
    x = v.astype(np.longdouble)
    return float(np.max(np.abs(x.T @ x - np.eye(v.shape[1], dtype=np.longdouble))))


def count_gram(monkeypatch) -> list:
    """The shapes of the Gram checks made from here on."""
    calls = []
    real = spectral._check_gram

    def check(v):
        calls.append(v.shape)
        real(v)

    monkeypatch.setattr(spectral, "_check_gram", check)
    return calls


def chain_of(omega, Omega, g, n_fock, first=0):
    diag, couplings = rabi_bands(ModelParams(omega, Omega, g, n_fock))
    return diag[spectral._chains(n_fock)[first]], couplings


@st.composite
def planted_chains(draw):
    """A random Jacobi chain, or two copies of one block a gap apart, joined by a
    tiny coupling, so that every level of the block has a near-tied twin."""
    values = st.floats(-5.0, 5.0, allow_nan=False)
    if draw(st.booleans()):
        n = draw(st.integers(2, 48))
        d = np.array(draw(st.lists(values, min_size=n, max_size=n)))
        e = np.array(draw(st.lists(values, min_size=n - 1, max_size=n - 1)))
        return d, e
    k = draw(st.integers(1, 24))
    d = np.array(draw(st.lists(values, min_size=k, max_size=k)))
    e = np.array(draw(st.lists(values, min_size=k - 1, max_size=k - 1)))
    gap = 10.0 ** draw(st.floats(-12, 0))
    join = draw(st.sampled_from([0.0, 1e-16, 1e-14, 1e-12, 1e-9, 1e-6]))
    return np.concatenate([d, d + gap]), np.concatenate([e, [join], e])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(chain=planted_chains())
@example(chain=(np.array([0.0, 1e-12]), np.array([0.0])))
@example(chain=chain_of(1.0, 1.0, 1e-3, 24))
@example(chain=chain_of(1.0, 1.05, 0.2, 48))
def test_accepted_bound_holds_and_the_solve_is_untouched(chain):
    d, e = chain
    w, v = eigh_tridiagonal(d, e)
    bound = spectral._enclosure_bound(d, e, w, v, residuals(d, e, w, v))
    if bound <= spectral.RESIDUAL_TOL:
        assert bound >= exact_defect(v)
    w2, v2 = spectral._solve_chain(d, e)
    assert w2.tobytes() == w.tobytes() and v2.tobytes() == v.tobytes()


def test_separated_solve_skips_the_gram_matrix(monkeypatch):
    calls = count_gram(monkeypatch)
    for first in (0, 1):
        spectral._solve_chain(*chain_of(1.0, 1.05, 0.2, 64, first))
    assert calls == []


def test_clustered_solve_falls_back_to_the_gram_matrix(monkeypatch):
    calls = count_gram(monkeypatch)
    for first in (0, 1):
        spectral._solve_chain(*chain_of(1.0, 1.0, 1e-3, 64, first))
    assert calls == [(64, 64), (64, 64)]


def test_touching_enclosures_give_no_bound():
    d, e = np.array([1.0, 1.0]), np.array([0.0])
    w, v = eigh_tridiagonal(d, e)
    assert spectral._enclosure_bound(d, e, w, v, residuals(d, e, w, v)) == np.inf


def test_parallel_vectors_of_a_near_tie_are_refused(monkeypatch):
    """Two nearly parallel vectors for a near-tied pair pass the residual check,
    so only the fallback's Gram matrix can refuse them."""
    d, e = chain_of(1.0, 1.0, 1e-12, 16)
    w, v = eigh_tridiagonal(d, e)
    pair = int(np.argmin(np.diff(w)))
    assert w[pair + 1] - w[pair] < 1e-11
    bad = v.copy()
    bad[:, pair + 1] = v[:, pair] + 1e-9 * v[:, pair + 1]
    bad[:, pair + 1] /= np.linalg.norm(bad[:, pair + 1])
    assert np.max(residuals(d, e, w, bad)) < spectral.RESIDUAL_TOL
    monkeypatch.setattr(spectral, "eigh_tridiagonal", lambda d, e: (w, bad))
    calls = count_gram(monkeypatch)
    with pytest.raises(SolverError, match="orthonormality"):
        spectral._solve_chain(d, e)
    assert calls == [(16, 16)]

