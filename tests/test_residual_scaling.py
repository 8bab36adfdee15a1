"""Residual norms are formed on the operator and its eigenvalues times the
power of two 2^-k that puts their scale in [0.5, 1), then multiplied back by
2^k. So a finite operator never overflows its residual check: the chain
solves and `dense_eigh` certify the same operator at any scale 2^k,
k in [-1000, 1000], and the CLI runs models and drives far above 2^512."""

import json
import os
import warnings

import numpy as np
import pytest

from spinboson import ModelParams, spectral
from spinboson.cli import EXIT_CERTIFICATION, EXIT_OK, main
from spinboson.fockmodel import build_rabi, rabi_bands

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

EPS = np.finfo(float).eps
# at omega = 1 every nonzero entry of H_Rabi is at least 5e-4 > 2^-22 in
# modulus, so times 2^k for k >= -1000 it stays a normal float: exactly scaled
OMEGAS = st.sampled_from([0.5, 1.0, 1.05, 2.0, 3.0, 4.999])


def assert_scaled(w_k, w, k):
    """w_k is 2^k w within 4 n eps of the largest |w|, n = len(w)."""
    assert np.max(np.abs(np.ldexp(w_k, -k) - w)) <= 4 * len(w) * EPS * np.max(np.abs(w))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(2, 64),
    Omega=OMEGAS,
    g=st.floats(0.05, 2.0),
    k=st.integers(-1000, 1000),
    first=st.sampled_from([0, 1]),
)
def test_chain_solve_certifies_any_power_of_two(n_fock, Omega, g, k, first):
    diag, e = rabi_bands(ModelParams(1.0, Omega, g, n_fock))
    d = diag[spectral._chains(n_fock)[first]]
    w, _ = spectral._solve_chain(d, e)
    w_k, _ = spectral._solve_chain(np.ldexp(d, k), np.ldexp(e, k))
    assert_scaled(w_k, w, k)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(2, 32),
    Omega=OMEGAS,
    g=st.floats(0.05, 2.0),
    k=st.integers(-1000, 1000),
)
def test_dense_solve_certifies_any_power_of_two(n_fock, Omega, g, k):
    h = build_rabi(ModelParams(1.0, Omega, g, n_fock)).entries
    w, _ = spectral.dense_eigh(h, "H_Rabi")
    w_k, _ = spectral.dense_eigh(np.ldexp(h, k), "H_Rabi")
    assert_scaled(w_k, w, k)


def unscaled_residuals(d, e, w, u):
    """The residual kernel as it was before its inputs were scaled."""
    residual = np.empty(len(w))
    for lo in range(0, len(w), spectral._RESIDUAL_BLOCK):
        at = slice(lo, lo + spectral._RESIDUAL_BLOCK)
        block = u[at]
        r = block * d
        r[:, :-1] += block[:, 1:] * e
        r[:, 1:] += block[:, :-1] * e
        r -= w[at, None] * block
        residual[at] = np.sqrt(np.einsum("ij,ij->i", r, r))
    return residual


@pytest.mark.parametrize("n_fock, g", [(16, 0.2), (256, 0.2), (256, 2.0), (1024, 0.5)])
def test_chain_residuals_are_bit_for_bit_where_nothing_overflows(n_fock, g):
    diag, e = rabi_bands(ModelParams(1.0, 1.05, g, n_fock))
    for rows in spectral._chains(n_fock):
        w, v = spectral.eigh_tridiagonal(diag[rows], e)
        expected = unscaled_residuals(diag[rows], e, w, v.T)
        assert np.array_equal(spectral._chain_residuals(diag[rows], e, w, v.T), expected)


def run(tmp_path, command, config):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return main([command, "--config", str(path), "--output-dir", str(tmp_path / "out")])


def spectrum_rows(tmp_path, scale):
    model = {"omega": scale, "Omega": 1.05 * scale, "g": 0.2 * scale, "n_fock": 32}
    tmp_path.mkdir()
    assert run(tmp_path, "spectrum", {"model": model}) == EXIT_OK
    lines = (tmp_path / "out" / "spectrum.csv").read_text().splitlines()[1:]
    return [line.rsplit(",", 1) for line in lines]


def test_spectrum_far_above_2_to_the_512_runs_with_the_unit_labels(tmp_path):
    # the residuals at 2^660 used to be inf ("residual inf exceeds 1.527e+190")
    big, unit = spectrum_rows(tmp_path / "big", 2.0**660), spectrum_rows(tmp_path / "unit", 1.0)
    assert [labels for labels, _ in big] == [labels for labels, _ in unit]
    w_big, w_unit = (np.array([float(w) for _, w in rows]) for rows in (big, unit))
    assert_scaled(w_big, w_unit, 660)


@pytest.mark.parametrize("delta", [1e200, 1e307])
def test_huge_drive_warns_nothing_and_writes_its_transfer(tmp_path, delta):
    # the dense residuals of H0 + delta B used to overflow in numpy's norm
    config = {
        "model": {"omega": 1.0, "Omega": 1.05, "g": 0.2, "n_fock": 8},
        "transfer": {"source": {"n": 0, "s": -1}, "target": {"n": 1, "s": -1}, "delta": delta},
    }
    assert run(tmp_path, "transfer", config) == EXIT_CERTIFICATION
    out = tmp_path / "out"
    assert sorted(os.listdir(out)) == ["populations.csv", "transfer.json"]
    report = json.loads((out / "transfer.json").read_text())
    assert report["edges"][0]["saturated_below_threshold"] is True
