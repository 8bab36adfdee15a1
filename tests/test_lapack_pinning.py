"""The chain solvers that `spectral` runs on SciPy's LAPACK extension equal
scipy.linalg's `eigh_tridiagonal` and `eigvalsh_tridiagonal` bit for bit."""

import re

import numpy as np
import pytest
import scipy.linalg

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson import ModelParams, spectral  # noqa: E402
from spinboson.fockmodel import rabi_bands  # noqa: E402


def assert_pinned(d: np.ndarray, e: np.ndarray) -> None:
    w, v = spectral.eigh_tridiagonal(d, e)
    w_ref, v_ref = scipy.linalg.eigh_tridiagonal(d, e)
    assert np.array_equal(w, w_ref)
    assert np.array_equal(v, v_ref)
    # `_solve_chain` forms residuals on rows of v.T, contiguous only in this order
    assert v.flags.f_contiguous
    assert np.array_equal(
        spectral.eigvalsh_tridiagonal(d, e), scipy.linalg.eigvalsh_tridiagonal(d, e)
    )
    top = (len(d) - 1, len(d) - 1)  # `control_norm`'s largest root
    assert np.array_equal(
        spectral.eigvalsh_tridiagonal(d, e, top=True),
        scipy.linalg.eigvalsh_tridiagonal(d, e, "i", top),
    )


def test_wrappers_run_on_the_extension():
    # else the pins below compare scipy.linalg with itself
    assert spectral.eigh_tridiagonal is not scipy.linalg.eigh_tridiagonal
    assert spectral.eigvalsh_tridiagonal is not scipy.linalg.eigvalsh_tridiagonal


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 1024),
    seed=st.integers(0, 2**32 - 1),
    levels=st.integers(0, 4),
    tiny=st.integers(0, 300),
    zeros=st.integers(0, 8),
)
@example(n=1, seed=0, levels=0, tiny=0, zeros=0)
@example(n=2, seed=1, levels=1, tiny=0, zeros=1)
@example(n=1024, seed=2, levels=0, tiny=0, zeros=0)
@example(n=1024, seed=3, levels=2, tiny=300, zeros=8)
def test_random_and_clustered_chains(n, seed, levels, tiny, zeros):
    """Random chains, with planted clusters: the diagonal drawn from `levels`
    repeated values (random when 0), a quarter of the couplings scaled down
    to 1e-`tiny`, and `zeros` exact zero couplings that split the chain."""
    rng = np.random.default_rng(seed)
    d = rng.choice(rng.normal(size=levels), n) if levels else rng.normal(size=n)
    e = rng.normal(size=n - 1)
    if n > 1:
        e[rng.random(n - 1) < 0.25] *= 10.0**-tiny
        e[rng.integers(0, n - 1, zeros)] = 0.0
    assert_pinned(d, e)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(2, 512),
    Omega=st.sampled_from([1.0, 3.0, 5.0]) | st.floats(0.1, 6.0),
    g=st.just(0.0) | st.floats(-2.0, 2.0),
)
@example(n_fock=1024, Omega=1.05, g=0.2)
@example(n_fock=256, Omega=1.0, g=0.0)
def test_rabi_chains(n_fock, Omega, g):
    diag, couplings = rabi_bands(ModelParams(1.0, Omega, g, n_fock))
    for rows in spectral._chains(n_fock):
        assert_pinned(diag[rows], couplings)


# (name, scipy.linalg's arguments, the package's) after the chain
SOLVES = [
    ("eigh_tridiagonal", (), {}),
    ("eigvalsh_tridiagonal", (), {}),
    ("eigvalsh_tridiagonal", ("i", (3, 3)), {"top": True}),
]


@pytest.mark.parametrize("name, args, kwargs", SOLVES)
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("where", [0, 1])
def test_non_finite_input_is_refused_as_scipy_refuses_it(name, args, kwargs, bad, where):
    chain = [np.arange(4.0), np.ones(3)]
    chain[where][1] = bad
    with pytest.raises(ValueError) as expected:
        getattr(scipy.linalg, name)(*chain, *args)
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        getattr(spectral, name)(*chain, **kwargs)


def test_mismatched_lengths_are_refused():
    with pytest.raises(ValueError, match="one more element"):
        spectral.eigh_tridiagonal(np.zeros(3), np.zeros(3))
    with pytest.raises(ValueError, match="one more element"):
        spectral.eigvalsh_tridiagonal(np.zeros(3), np.zeros(1))
