"""H_Rabi spectra place each chain's eigenvectors once, at their final columns,
and a chain solve forms its residuals a block of eigenvectors at a time; both
match the straightforward forms they replaced."""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from spinboson import ModelParams, SolverError, spectral
from spinboson.fockmodel import basis_order, rabi_bands


def scattered(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """The chain solves scattered into one 2N x 2N matrix, column k the eigenpair
    of solve index k."""
    w, vecs = spectral._chain_eigenpairs(params)
    v = np.zeros((params.dim, params.dim))
    for rows, vc in zip(spectral._chains(params.n_fock), vecs):
        v[np.ix_(rows, rows)] = vc
    return w, v


def same(spec: spectral.Spectrum, w: np.ndarray, v: np.ndarray) -> bool:
    """Bit-equal eigenpairs, stored in Fortran order as a column gather gives them."""
    vectors = spec.eigenvectors
    return (
        vectors.flags["F_CONTIGUOUS"]
        and spec.eigenvalues.tobytes() == w.tobytes()
        and vectors.tobytes() == v.tobytes()
    )


@pytest.mark.parametrize("Omega, g, n_fock", [(1.05, 0.2, 32), (1.05, -0.3, 33), (1.5, 1.0, 16)])
def test_unlabelled_spectrum_is_the_sorted_scatter(Omega, g, n_fock):
    params = ModelParams(1.0, Omega, g, n_fock)
    w, v = scattered(params)
    order = np.argsort(w, kind="stable")
    assert same(spectral.rabi_spectrum(params), w[order], v[:, order])


@pytest.mark.parametrize("Omega, g, n_fock", [(1.05, 0.2, 32), (1.05, -0.3, 33), (1.5, 1.0, 16)])
def test_rank_labels_place_the_sorted_scatter(Omega, g, n_fock):
    params = ModelParams(1.0, Omega, g, n_fock)
    energies, _ = rabi_bands(params)
    cols = np.empty(params.dim, dtype=np.intp)
    for rows in spectral._chains(n_fock):
        cols[spectral._ranked(rows, energies)] = rows
    w, v = scattered(params)
    order = np.argsort(w[cols], kind="stable")
    spec = spectral.labelled_spectrum(params)
    assert same(spec, w[cols][order], v[:, cols][:, order])
    basis = basis_order(n_fock)
    assert spec.labels == {r: basis[k] for r, k in enumerate(order)}


def test_bare_levels_are_the_sorted_product_basis():
    params = ModelParams(1.0, 1.05, 0.0, 16)
    energies, _ = rabi_bands(params)
    order = np.argsort(energies, kind="stable")
    assert same(spectral.labelled_spectrum(params), energies[order], np.eye(params.dim)[:, order])


@pytest.mark.parametrize("g", [0.5, -0.5])
def test_continued_labels_place_the_branch_vectors(g):
    params = ModelParams(1.0, 4.999, g, 32)
    fam = spectral.track_branches(params, np.unique(np.linspace(min(0, g), max(0, g), 21)))
    gi = fam.grid_index(g)
    order = np.argsort(fam.energies[:, gi], kind="stable")
    spec = spectral.labelled_spectrum(params)
    assert spec.eigenvalues.tobytes() == fam.energies[order, gi].tobytes()
    assert np.array_equal(spec.eigenvectors, fam.vectors_at(gi)[:, order])
    assert spec.labels == {r: fam.labels[b] for r, b in enumerate(order)}


def column_residuals(d, e, w, v):
    tv = d[:, None] * v
    tv[:-1] += e[:, None] * v[1:]
    tv[1:] += e[:, None] * v[:-1]
    return np.linalg.norm(tv - v * w, axis=0)


def seen_residuals(monkeypatch) -> list:
    seen = []
    real = spectral._check_residuals

    def check(residual, w):
        seen.append(residual.copy())
        real(residual, w)

    monkeypatch.setattr(spectral, "_check_residuals", check)
    return seen


@pytest.mark.parametrize("n", [2, 63, 64, 65, 130, 300])
def test_blocked_residuals_equal_the_column_norms(monkeypatch, n):
    rng = np.random.default_rng(n)
    d, e = rng.uniform(-5, 5, n), rng.uniform(-5, 5, n - 1)
    seen = seen_residuals(monkeypatch)
    w, v = spectral._solve_chain(d, e)
    expected = column_residuals(d, e, w, v)
    assert len(seen) == 1 and seen[0].shape == (n,)
    assert np.allclose(seen[0], expected, rtol=1e-12, atol=1e-300)


@pytest.mark.parametrize("bad", [0, 63, 64, 129])
def test_a_bad_eigenpair_in_any_block_is_refused(monkeypatch, bad):
    rng = np.random.default_rng(7)
    d, e = rng.uniform(-5, 5, 130), rng.uniform(-5, 5, 129)
    w, v = eigh_tridiagonal(d, e)
    w = w.copy()
    w[bad] += 1e-6
    monkeypatch.setattr(spectral, "eigh_tridiagonal", lambda d, e: (w, v))
    with pytest.raises(SolverError, match="residual"):
        spectral._solve_chain(d, e)
