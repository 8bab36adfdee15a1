"""One residual kernel (`_chain_residuals`) and one Kato radius (`_kato_radii`)
serve the chain certificate and hold for padded vectors too, and a spectrum
forms its trust count once."""

import math
import warnings

import numpy as np
import pytest

from spinboson import ModelParams, spectral
from spinboson.fockmodel import rabi_bands

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

EPS = np.finfo(float).eps


def dense(d, e) -> np.ndarray:
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def scale_of(d, e) -> float:
    return float(np.max(np.abs(d)) + 2 * np.max(np.abs(e), initial=0.0))


def assert_enclosed(w, radii, d, e):
    """Each [w_i - r_i, w_i + r_i], widened by the dense reference solve's own
    bound len(d) eps S, holds an eigenvalue of the chain (d, e)."""
    exact = np.linalg.eigvalsh(dense(d, e))
    widen = len(d) * EPS * scale_of(d, e)
    gaps = np.min(np.abs(w[:, None] - exact[None, :]), axis=1)
    assert np.all(gaps <= radii + widen), np.max(gaps - radii - widen)


def scaled(n_fock, Omega, g, k) -> ModelParams:
    # powers of two scale every energy exactly
    s = 2.0**k
    return ModelParams(s, Omega * s, g * s, n_fock)


def chain_of(spec) -> np.ndarray:
    """The parity chain of each level of an H_Rabi spectrum (0 or 1, as
    `_chains` numbers them): the one whose rows hold its eigenvector."""
    rows = spectral._chains(spec.params.n_fock)
    weight = [np.einsum("ij,ij->j", spec.eigenvectors[r], spec.eigenvectors[r]) for r in rows]
    return np.argmax(weight, axis=0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(2, 64),
    Omega=st.floats(0.2, 6.0),
    g=st.floats(-2.0, 2.0),
    k=st.integers(-40, 30),
    first=st.sampled_from([0, 1]),
    pair=st.integers(0, 62),
    angle=st.floats(0.0, math.pi / 4),
)
def test_chain_solve_radii_hold_an_eigenvalue(n_fock, Omega, g, k, first, pair, angle):
    """A chain solve with one planted rotation of a neighbouring pair, each
    rotated vector at its Rayleigh quotient: the radii are the pair's mixing,
    up to half their gap at pi/4, not rounding alone."""
    p = scaled(n_fock, Omega, g, k)
    diag, e = rabi_bands(p)
    d = diag[spectral._chains(n_fock)[first]]
    w, v = spectral.eigh_tridiagonal(d, e)
    w, v = w.copy(), v.copy()
    i, t = pair % (n_fock - 1), dense(d, e)
    c, s = math.cos(angle), math.sin(angle)
    v[:, [i, i + 1]] = v[:, [i, i + 1]] @ np.array([[c, -s], [s, c]])
    for j in (i, i + 1):
        w[j] = v[:, j] @ t @ v[:, j] / (v[:, j] @ v[:, j])
    residual = spectral._chain_residuals(d, e, w, v.T)
    nsq = np.einsum("ij,ij->j", v, v)
    radii = spectral._kato_radii(residual, nsq, w, scale_of(d, e), n_fock)
    assert_enclosed(w, radii, d, e)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(2, 64),
    Omega=st.floats(0.2, 6.0),
    g=st.floats(-2.0, 2.0),
    k=st.integers(-40, 30),
)
def test_padded_radii_hold_an_eigenvalue_of_the_2n_chain(n_fock, Omega, g, k):
    """Every level's vector of H_N, padded with zeros into the chain of H_2N:
    its top levels carry a large padded entry."""
    p = scaled(n_fock, Omega, g, k)
    spec = spectral.rabi_spectrum(p)
    d2, c2 = rabi_bands(scaled(2 * n_fock, Omega, g, k))
    scale = float(np.max(np.abs(d2)) + 2 * np.max(np.abs(c2)))
    for chain, rows in enumerate(spectral._chains(2 * n_fock)):
        mine = np.flatnonzero(chain_of(spec) == chain)
        theta = spec.eigenvalues[mine]
        u = spec.eigenvectors.T[np.ix_(mine, rows[:n_fock])]
        inner = spectral._chain_residuals(d2[rows[:n_fock]], c2[: n_fock - 1], theta, u)
        residual = np.hypot(inner, c2[n_fock - 1] * u[:, -1])
        nsq = np.einsum("ij,ij->i", u, u)
        radii = spectral._kato_radii(residual, nsq, theta, scale, n_fock)
        assert_enclosed(theta, radii, d2[rows], c2)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 3), (17, 64), (64, 65), (130, 200)])
def test_chain_residuals_equal_dense_residuals(n, m):
    rng = np.random.default_rng(n * 1000 + m)
    d, e = rng.normal(size=n), rng.normal(size=n - 1)
    w, v = rng.normal(size=m), np.asfortranarray(rng.normal(size=(n, m)))
    expect = np.linalg.norm(v.T @ dense(d, e) - w[:, None] * v.T, axis=1)
    # rows contiguous (v.T of a Fortran-ordered v) and rows strided
    for u in (v.T, np.asfortranarray(v.T)):
        got = spectral._chain_residuals(d, e, w, u)
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0)


def test_chain_residuals_of_a_spectrum_window():
    # rows gathered from a spectrum's eigenvectors, one chain's
    n = 40
    spec = spectral.rabi_spectrum(ModelParams(1.0, 1.05, 0.7, n))
    d2, c2 = rabi_bands(ModelParams(1.0, 1.05, 0.7, 2 * n))
    rows = spectral._chains(2 * n)[0]
    mine = np.flatnonzero(chain_of(spec) == 0)
    u = spec.eigenvectors.T[np.ix_(mine, rows[:n])]
    w = spec.eigenvalues[mine] - 100.0  # residuals far above their rounding
    expect = np.linalg.norm(u @ dense(d2[rows[:n]], c2[: n - 1]) - w[:, None] * u, axis=1)
    got = spectral._chain_residuals(d2[rows[:n]], c2[: n - 1], w, u)
    np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0)


@pytest.fixture
def counters(monkeypatch):
    """Calls of the convergence scan and of the enclosure count from here on."""
    calls = {"scan": 0, "enclosure": 0}
    real_scan, real_enclosure = spectral.convergence_scan, spectral._enclosed_levels

    def scan(*args, **kwargs):
        calls["scan"] += 1
        return real_scan(*args, **kwargs)

    def enclosure(*args):
        calls["enclosure"] += 1
        return real_enclosure(*args)

    monkeypatch.setattr(spectral, "convergence_scan", scan)
    monkeypatch.setattr(spectral, "_enclosed_levels", enclosure)
    return calls


P = ModelParams(1.0, 1.05, 0.2, 32)


def test_a_given_count_runs_neither(counters):
    spec = spectral.rabi_spectrum(P)
    given_count = spectral.Spectrum(
        P, spec.eigenvalues, spec.eigenvectors, {}, [], trust_cutoff=5
    )
    assert given_count.trust_cutoff == 5
    assert given_count.trusts(5) and not given_count.trusts(6)
    assert given_count.trusted_window(12) == 5
    assert counters == {"scan": 0, "enclosure": 0}


def test_an_assigned_count_runs_neither(counters):
    spec = spectral.rabi_spectrum(P)
    spec.trust_cutoff = 7
    assert spec.trust_cutoff == 7
    assert spec.trusts(7) and not spec.trusts(8)
    assert counters == {"scan": 0, "enclosure": 0}


def test_an_unknown_count_scans_once_and_then_decides_alone(counters):
    # the enclosure forms the count once, when first read; no scan runs
    spec = spectral.rabi_spectrum(P)
    assert counters == {"scan": 0, "enclosure": 0}
    assert spec.trusts(4)
    assert counters == {"scan": 0, "enclosure": 1}
    count = spec.trust_cutoff
    assert count == 50
    assert [spec.trust_cutoff for _ in range(5)] == [count] * 5
    for window in (1, 4, 12, count, count + 1, 2 * P.n_fock):
        assert spec.trusts(window) == (window <= count)
    assert counters == {"scan": 0, "enclosure": 1}


def test_slack_near_the_largest_float_stays_finite(monkeypatch):
    """At omega = 1.5e307 the chain norm S and max|w| each fit in a float but
    their sum does not: the slack is formed term by term, so nothing
    overflows, the enclosure bound is finite and no Gram fallback runs."""
    bounds = []
    real_bound = spectral._enclosure_bound

    def bound(*args):
        bounds.append(real_bound(*args))
        return bounds[-1]

    def gram(v):
        raise AssertionError("the Gram fallback ran")

    monkeypatch.setattr(spectral, "_enclosure_bound", bound)
    monkeypatch.setattr(spectral, "_check_gram", gram)
    omega = 1.5e307
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        spec = spectral.rabi_spectrum(ModelParams(omega, 1.05 * omega, 0.2 * omega, 8))
    assert len(bounds) == 2
    assert all(math.isfinite(b) and b <= spectral.RESIDUAL_TOL for b in bounds)
    assert np.all(np.isfinite(spec.eigenvalues))
