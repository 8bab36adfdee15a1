"""H(-g) = Pi H(g) Pi for the photon parity Pi, so the continuation solves each
|g| once per chain and mirrors it for g < 0. These tests pin the solver's
mirror symmetry, the solve counts, and that the mirrored branches equal a
continuation that solves every g < 0 on its own."""

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from spinboson import ModelParams, spectral, track_branches
from spinboson.fockmodel import build_interaction, photon_ladder, rabi_bands

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def chain_parity(n: int) -> np.ndarray:
    return np.where(np.arange(n) % 2, -1.0, 1.0)


@st.composite
def chains(draw):
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
    join = draw(st.sampled_from([1e-16, 1e-14, 1e-12, 1e-9, 1e-6]))
    return np.concatenate([d, d + gap]), np.concatenate([e, [join], e])


def chain_of(Omega, g, n_fock, first=0):
    diag, couplings = rabi_bands(ModelParams(1.0, Omega, g, n_fock))
    return diag[spectral._chains(n_fock)[first]], couplings


@settings(max_examples=300, deadline=None, derandomize=True)
@given(chain=chains())
@example(chain=chain_of(1.0, 1e-6, 64))
@example(chain=chain_of(2.999, 0.3, 128, first=1))
@example(chain=chain_of(1.05, 1.3, 512))
def test_the_solver_mirrors_a_sign_flipped_chain(chain):
    """eigh_tridiagonal(d, -e) returns the eigenvalues of (d, e) bit for bit and
    D v for D = diag((-1)^r), up to the sign of each column."""
    d, e = chain
    w, v = eigh_tridiagonal(d, e)
    w2, v2 = eigh_tridiagonal(d, -e)
    assert w2.tobytes() == w.tobytes()
    dv = v * chain_parity(len(d))[:, None]
    assert np.all(np.all(v2 == dv, axis=0) | np.all(v2 == -dv, axis=0))


def mirrored(top: float, k: int) -> np.ndarray:
    upper = top * np.arange(1, k + 1) / k
    return np.concatenate([-upper[::-1], [0.0], upper])


GRIDS = [  # Omega, n_fock, grid, whether some step bisects
    pytest.param(1.05, 32, mirrored(0.05, 10), False, id="plain"),
    pytest.param(1.0, 16, mirrored(0.3, 6), False, id="tied"),
    pytest.param(4.999, 32, mirrored(0.5, 5), True, id="bisecting"),
    pytest.param(1.05, 16, np.linspace(-0.6, 0.0, 7), True, id="negative-only"),
    # no bisection midpoint lands on a grid |g|
    pytest.param(1.05, 16, [-0.2, -0.1, 0.0, 0.1, 0.13], True, id="partly-shared"),
]


def record_solves(monkeypatch) -> list:
    """(diagonal, couplings) of every chain solve made from here on, as bytes."""
    calls = []
    real = spectral._solve_chain

    def solve(d, e):
        calls.append((d.tobytes(), e.tobytes()))
        return real(d, e)

    monkeypatch.setattr(spectral, "_solve_chain", solve)
    return calls


@pytest.mark.parametrize("Omega, n_fock, grid, bisects", GRIDS)
def test_each_grid_magnitude_is_solved_once_per_chain(monkeypatch, Omega, n_fock, grid, bisects):
    p = ModelParams(1.0, Omega, 0.0, n_fock)
    calls = record_solves(monkeypatch)
    track_branches(p, grid)
    diag, _ = rabi_bands(p)
    c = photon_ladder(n_fock)
    sizes = {abs(g) for g in grid if g != 0}
    for rows in spectral._chains(n_fock):
        d = diag[rows].tobytes()
        for size in sizes:
            assert calls.count((d, (size * c).tobytes())) == 1
    if bisects:
        assert len(calls) > 2 * len(sizes)
    else:
        assert len(calls) == 2 * len(sizes)


def continued_directly(d, c, g0, v0, rank0, g1, depth):
    """The continuation step solving the chain at g1 itself, for either sign of g1."""
    w, v = spectral._solve_chain(d, g1 * c)
    rank = rank0
    overlap = np.einsum("ij,ij->j", v0, v[:, rank])
    if np.min(np.abs(overlap)) < spectral.OVERLAP_FLOOR:
        m = v0.T @ v
        rank = np.argmax(np.abs(m), axis=1)
        overlap = m[np.arange(len(rank)), rank]
    worst = float(np.min(np.abs(overlap)))
    if worst >= spectral.OVERLAP_FLOOR and len(np.unique(rank)) == len(rank):
        sign = np.where(overlap < 0, -1.0, 1.0)
        return w[rank], v[:, rank] * sign, rank, worst
    assert depth > 0
    gm = 0.5 * (g0 + g1)
    _, vm, rm, o1 = continued_directly(d, c, g0, v0, rank0, gm, depth - 1)
    w1, v1, r1, o2 = continued_directly(d, c, gm, vm, rm, g1, depth - 1)
    return w1, v1, r1, min(o1, o2)


@pytest.mark.parametrize("Omega, n_fock, grid, bisects", GRIDS)
def test_mirrored_branches_equal_a_direct_continuation(Omega, n_fock, grid, bisects):
    p = ModelParams(1.0, Omega, 0.0, n_fock)
    fam = track_branches(p, grid)
    _, v_seed, e_seed = spectral._seed_at_zero(p)
    c = photon_ladder(n_fock)
    i0 = int(np.flatnonzero(fam.g_grid == 0.0)[0])
    worst_seen = 1.0
    for rows in spectral._chains(n_fock):
        cols = spectral._ranked(rows, e_seed)
        for steps in (range(i0 + 1, len(grid)), range(i0 - 1, -1, -1)):
            v, rank, g_prev = v_seed[np.ix_(rows, cols)], np.arange(len(rows)), 0.0
            for gi in steps:
                g = float(fam.g_grid[gi])
                w, v, rank, worst = continued_directly(e_seed[rows], c, g_prev, v, rank, g, 6)
                worst_seen, g_prev = min(worst_seen, worst), g
                assert np.array_equal(fam.energies[cols, gi], w)
                vectors = fam.vectors_at(gi)
                assert np.array_equal(vectors[np.ix_(rows, cols)], v)
    assert fam.overlap_floor == worst_seen


def test_the_stencil_at_zero_mirrors_its_positive_points(monkeypatch):
    p = ModelParams(1.0, 1.0, 0.0, 16)
    fam = track_branches(p, [0.0])
    solved = []
    real = spectral._chain_eigenpairs

    def counting(params):
        solved.append(params.g)
        return real(params)

    monkeypatch.setattr(spectral, "_chain_eigenpairs", counting)
    v_op = build_interaction(p)
    rows = spectral.hellmann_feynman_check(fam, v_op, 0.0)
    assert solved == [2e-3, 1e-3]

    # the stencil read off solves at each signed point gives the same rows
    vectors = fam.vectors_at(0)

    def direct(d):
        w, vecs = real(p.with_g(d))
        return w[np.argmax(np.abs(vectors.T @ spectral._placed(vecs, np.arange(p.dim))), axis=1)]

    slopes = spectral.stencil_slope(direct, 1e-3)
    assert [row["fd_slope"] for row in rows] == slopes.tolist()
