"""The eigenpair residual bound and the g-grid tolerances are unit-free.

H(c omega, c Omega, c g) = c H(omega, Omega, g), so a bound on a residual is
relative to |H|_2 = max|w|, and a match of coupling values is relative to the
grid's largest |g|. An absolute floor would make each check vacuous at a small
enough unit: a residual of 1e-10 passed at omega = 2^-43, where every
eigenvalue is below 4e-12, and a tolerance of 1e-14 in g spans several points
of a grid of width 0.1 * 2^-40.
"""

import numpy as np
import pytest

from spinboson import BasisIndex, BranchFamily, ModelParams, e_series_fit, rabi_spectrum
from spinboson import spectral
from spinboson.spectral import SolverError


def params_at(scale: float) -> ModelParams:
    return ModelParams(scale, 1.05 * scale, 0.2 * scale, 32)


@pytest.mark.parametrize("scale", [1.0, 2.0**-43], ids=["unit", "2^-43"])
def test_planted_bad_eigenpair_is_refused(monkeypatch, scale):
    spectrum = rabi_spectrum(params_at(scale))  # the true solves pass
    assert np.max(np.abs(spectrum.eigenvalues)) < 40 * scale
    solve = spectral.eigh_tridiagonal

    def planted(d, e):
        # the two lowest eigenvectors turned by 45 degrees: still orthonormal,
        # but each is off by half the gap between them, ~0.1 scale
        w, v = solve(d, e)
        v = v.copy()
        v[:, :2] = v[:, :2] @ (np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2))
        return w, v

    monkeypatch.setattr(spectral, "eigh_tridiagonal", planted)
    with pytest.raises(SolverError, match="eigenpair residual"):
        rabi_spectrum(params_at(scale))


def family_on(grid: np.ndarray, scale: float) -> BranchFamily:
    """A one-branch family on `grid` whose energy is scale (1 + (g/scale)^2);
    nothing but the grid and the energies is read here."""
    n = len(grid)
    return BranchFamily(
        params_at(scale),
        grid,
        [BasisIndex(0, -1)],
        (scale * (1 + (grid / scale) ** 2))[None, :],
        np.zeros((n, 1), dtype=int),
        np.ones((n, 1)),
        1.0,
    )


@pytest.mark.parametrize("scale", [1.0, 2.0**-40], ids=["unit", "2^-40"])
def test_scaled_grid_finds_its_points_only(scale):
    grid = np.linspace(-0.05, 0.05, 21) * scale
    family = family_on(grid, scale)
    assert [family.grid_index(g) for g in grid.tolist()] == list(range(21))
    with pytest.raises(KeyError, match="not a grid point"):
        family.grid_index((grid[3] + grid[4]) / 2)
    with pytest.raises(KeyError, match="not a grid point"):
        family.grid_index(grid[4] + 1e-6 * (grid[4] - grid[3]))


@pytest.mark.parametrize("scale", [1.0, 2.0**-40], ids=["unit", "2^-40"])
def test_scaled_fit_grid_symmetry(scale):
    grid = np.linspace(-0.05, 0.05, 21) * scale
    fit = e_series_fit(family_on(grid, scale), BasisIndex(0, -1))
    assert fit.coefficient(2) * scale == pytest.approx(1.0)
    skewed = grid.copy()
    skewed[-1] += 1e-3 * (grid[-1] - grid[-2])
    with pytest.raises(ValueError, match="symmetric"):
        e_series_fit(family_on(skewed, scale), BasisIndex(0, -1))
