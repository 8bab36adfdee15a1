"""Closed-form coupling-series coefficients and their numerical cross-checks.

The eigenvalue of the level (n, s) expands as
E(g) = E0 + g^2 E2 + g^4 E4 + ..., with odd orders vanishing identically.
E2 and E4 have closed forms; E4 is quadratic in n for fixed s. The closed
forms are validated against polynomial fits of numerically tracked branches.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ._io import dump_json, write_csv
from .fockmodel import (
    BasisIndex,
    ModelParams,
    bare_energy,
    build_control,
    degenerate_basis,
    tied,
)
from .spectral import (
    BranchFamily,
    GridRefinementError,
    galerkin_sizes,
    stencil_slope,
    track_branches,
)

__all__ = [
    "PerturbationTable",
    "FitResult",
    "e0_closed",
    "e2_closed",
    "e4_closed",
    "c_coefficients",
    "e_series_fit",
    "coupling_slope_closed",
    "coupling_slope_fit",
    "degenerate_basis",
    "degenerate_slopes",
    "build_table",
    "FIT_WINDOW",
    "FIT_POINTS",
    "FIT_DEGREE",
]

# Default fit protocol. The window must stay well inside the convergence
# radius of the coupling series, which is limited by complex branch points
# at |g| ~ |Omega - omega| / (2 sqrt((n+1)/2)); for |Omega - omega| = 0.1
# and n <= 5 that is ~0.03, so +-0.01 keeps the truncated-series bias far
# below the published tolerances (degree 8 absorbs the g^6 and g^8 tails).
FIT_WINDOW = 0.01
FIT_POINTS = 21
FIT_DEGREE = 8

CONDITION_LIMIT = 1e10


def _require_nondegenerate(omega: float, Omega: float) -> None:
    if tied(omega, Omega):
        raise ValueError(
            "omega = Omega is the degenerate case; use degenerate_basis/"
            "degenerate_slopes instead"
        )


def e0_closed(level: BasisIndex, omega: float, Omega: float) -> float:
    """Uncoupled eigenvalue omega*(n + 1/2) + s*Omega/2."""
    return bare_energy(level.n, level.s, omega, Omega)


def e2_closed(level: BasisIndex, omega: float, Omega: float) -> float:
    """Second-order coefficient (omega + s*Omega*(2n+1)) / (2*(Omega^2 - omega^2))."""
    _require_nondegenerate(omega, Omega)
    n, s = level.n, level.s
    return (omega + s * Omega * (2 * n + 1)) / (2 * (Omega**2 - omega**2))


def e4_closed(level: BasisIndex, omega: float, Omega: float) -> float:
    """Fourth-order coefficient by literal summation of the two surviving sums.

    The two sums are the length-4 ladder chains through the out-and-back
    intermediate states; chains that would leave the basis at n = 0 or 1
    carry vanishing matrix-element factors and count as zero.
    """
    _require_nondegenerate(omega, Omega)
    n, s = level.n, level.s
    d_down = -omega - s * Omega  # E(n-1, -s) - E(n, s)
    d_up = omega - s * Omega  # E(n+1, -s) - E(n, s)

    # chain sum with distinct intermediates (enters with an overall minus)
    chain = (
        d_down ** -1 * (-2 * omega) ** -1 * d_down ** -1 * (n / 2) * ((n - 1) / 2)
        + d_up ** -1 * (2 * omega) ** -1 * d_up ** -1 * ((n + 1) / 2) * ((n + 2) / 2)
    )
    # out-and-back sum over the four (m, p) ladder combinations
    out_back = (
        d_down ** -3 * (n / 2) ** 2
        + d_down ** -2 * d_up ** -1 * (n / 2) * ((n + 1) / 2)
        + d_up ** -2 * d_down ** -1 * (n / 2) * ((n + 1) / 2)
        + d_up ** -3 * ((n + 1) / 2) ** 2
    )
    return -chain + out_back


def c_coefficients(s: int, omega: float, Omega: float) -> tuple[float, float, float]:
    """Coefficients of E4 = C0 + C1*n + C2*n^2 for fixed spin s.

    C2 comes from its closed form; C0 and C1 are read off the literal sums
    (E4 is exactly quadratic in n, so two evaluations determine them).
    """
    _require_nondegenerate(omega, Omega)
    if s not in (-1, 1):
        raise ValueError(f"spin must be -1 or +1, got {s}")
    c2 = s * Omega * (omega**2 + 3 * Omega**2) / (2 * (omega**2 - Omega**2) ** 3)
    c0 = e4_closed(BasisIndex(0, s), omega, Omega)
    c1 = e4_closed(BasisIndex(1, s), omega, Omega) - c0 - c2
    return c0, c1, c2


@dataclass
class FitResult:
    """Least-squares polynomial fit of a branch energy over a symmetric window."""

    level: BasisIndex
    coefficients: np.ndarray
    condition_number: float
    window: tuple[float, float, int]

    def coefficient(self, order: int) -> float:
        return float(self.coefficients[order])


def e_series_fit(
    branch: BranchFamily, level: BasisIndex, degree: int = FIT_DEGREE
) -> FitResult:
    """Fit the branch energy E(g) by a polynomial on the family's grid.

    The grid must be symmetric about 0 with at least degree + 3 points.
    Fitting is done in the scaled variable g / g_max to keep the design
    matrix well conditioned; coefficients are returned unscaled.
    """
    grid = branch.g_grid
    if len(grid) < degree + 3:
        raise ValueError(f"need at least {degree + 3} grid points, have {len(grid)}")
    if np.max(np.abs(grid + grid[::-1])) > 1e-14 * np.max(np.abs(grid)):
        raise ValueError("branch grid must be symmetric about g = 0")
    scale = float(np.max(np.abs(grid)))
    if scale == 0:
        raise ValueError("degenerate grid: all points at g = 0")
    energies = branch.energies[branch.branch_index(level)]
    design = np.vander(grid / scale, degree + 1, increasing=True)
    coeffs_scaled, _, _, sv = np.linalg.lstsq(design, energies, rcond=None)
    cond = float(sv[0] / sv[-1])
    if cond > CONDITION_LIMIT:
        raise ValueError(
            f"ill-conditioned fit (condition number {cond:.2e}); shrink the window "
            "or lower the degree"
        )
    coeffs = coeffs_scaled / scale ** np.arange(degree + 1)
    return FitResult(level, coeffs, cond, (float(grid[0]), float(grid[-1]), len(grid)))


def coupling_slope_closed(
    j: BasisIndex, k: BasisIndex, omega: float, Omega: float
) -> float:
    """First derivative at g = 0 of the cross-spin control matrix element.

    Defined for pairs with s(j) = -s(k) and n(j) = n(k); the value
    omega / (Omega^2 - omega^2) is independent of n and s.
    """
    _require_nondegenerate(omega, Omega)
    if j.s != -k.s or j.n != k.n:
        raise ValueError(
            f"levels {j} and {k} are not an opposite-spin pair at equal photon number"
        )
    return omega / (Omega**2 - omega**2)


def coupling_slope_fit(
    branch: BranchFamily, j: BasisIndex, k: BasisIndex, h: float = 1e-3
) -> float:
    """Centered finite difference at g = 0 of <v_j(g), B_X v_k(g)>.

    Requires +-h and +-2h to be grid points of the branch family.
    """
    b = build_control(branch.params_base).entries
    bj = branch.branch_index(j)
    bk = branch.branch_index(k)

    def elem(g: float) -> float:
        vectors = branch.vectors_at(branch.grid_index(g))
        return float(vectors[:, bj] @ (b @ vectors[:, bk]))

    return stencil_slope(elem, h)


def degenerate_slopes(j: int) -> tuple[float, float]:
    """First-order splitting slopes (+sqrt((j+1)/2), -sqrt((j+1)/2))."""
    if j < 0:
        raise ValueError(f"j must be >= 0, got {j}")
    r = math.sqrt((j + 1) / 2)
    return r, -r


@dataclass
class PerturbationTable:
    """Closed-form and fitted series coefficients for one level."""

    level: BasisIndex
    e0: float
    e1: float
    e2: float
    e3: float
    e4: float
    e0_fit: float
    e1_fit: float
    e2_fit: float
    e3_fit: float
    e4_fit: float
    coupling_slope: float
    fit_window: tuple[float, float, int]
    fit_n_fock: int  # the truncation the branches were fitted on

    def to_dict(self) -> dict:
        return {
            "level_n": self.level.n,
            "level_s": self.level.s,
            "e0": self.e0,
            "e1": self.e1,
            "e2": self.e2,
            "e3": self.e3,
            "e4": self.e4,
            "e0_fit": self.e0_fit,
            "e1_fit": self.e1_fit,
            "e2_fit": self.e2_fit,
            "e3_fit": self.e3_fit,
            "e4_fit": self.e4_fit,
            "coupling_slope": self.coupling_slope,
            "fit_window": list(self.fit_window),
            "fit_n_fock": self.fit_n_fock,
        }


def _fitted_family(
    params_base: ModelParams, grid: np.ndarray, levels: list[BasisIndex]
) -> BranchFamily:
    """The branches over `grid` on the smallest working truncation M of
    `galerkin_sizes` whose trust enclosure holds every level of `levels` at
    every grid point (`BranchFamily.trusts`), else on n_fock. An M whose
    continuation raises GridRefinementError is passed over too."""
    omega, Omega, g = params_base.omega, params_base.Omega, params_base.g
    for m in galerkin_sizes(params_base.n_fock):
        try:
            family = track_branches(ModelParams(omega, Omega, g, m), grid)
        except GridRefinementError:
            continue
        if family.trusts(levels):
            return family
    return track_branches(params_base, grid)


def build_table(
    params_base: ModelParams,
    levels: list[BasisIndex] | None = None,
    window: float = FIT_WINDOW,
    n_points: int = FIT_POINTS,
    degree: int = FIT_DEGREE,
) -> list[PerturbationTable]:
    """Closed forms next to branch fits for the requested levels.

    The branches are tracked on the smallest working truncation that encloses
    every requested level within TRUST_TOL omega of the untruncated model's
    at every grid point, else on params_base.n_fock (`_fitted_family`); each
    row names it. E1 and E3 are stored as literal zeros; the fitted odd
    coefficients are what the numerics produce and stay near zero by parity.
    """
    omega, Omega = params_base.omega, params_base.Omega
    _require_nondegenerate(omega, Omega)
    if levels is None:
        levels = [BasisIndex(n, s) for n in range(6) for s in (1, -1)]
    if n_points % 2 == 0 or n_points < 3:
        raise ValueError(f"n_points = {n_points} must be odd and at least 3")
    # m steps either side of a middle point that is 0.0 exactly, as the
    # labelling's anchor needs; linspace's need not be
    m = n_points // 2
    branch = _fitted_family(params_base, window * np.arange(-m, m + 1) / m, levels)
    rows = []
    for lev in levels:
        fit = e_series_fit(branch, lev, degree)
        partner = BasisIndex(lev.n, -lev.s)
        rows.append(
            PerturbationTable(
                level=lev,
                e0=e0_closed(lev, omega, Omega),
                e1=0.0,
                e2=e2_closed(lev, omega, Omega),
                e3=0.0,
                e4=e4_closed(lev, omega, Omega),
                e0_fit=fit.coefficient(0),
                e1_fit=fit.coefficient(1),
                e2_fit=fit.coefficient(2),
                e3_fit=fit.coefficient(3),
                e4_fit=fit.coefficient(4),
                coupling_slope=coupling_slope_closed(lev, partner, omega, Omega),
                fit_window=fit.window,
                fit_n_fock=branch.params_base.n_fock,
            )
        )
    return rows


def table_to_csv(rows: list[PerturbationTable], path: str | os.PathLike) -> None:
    """Every column of `to_dict` except the fit window and truncation."""
    dicts = [row.to_dict() for row in rows]
    keys = [k for k in dicts[0] if k not in ("fit_window", "fit_n_fock")]
    write_csv(path, keys, ([d[k] for k in keys] for d in dicts))


def table_to_json(rows: list[PerturbationTable]) -> str:
    return dump_json([row.to_dict() for row in rows])
