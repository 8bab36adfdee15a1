"""Diagonalization, labelling and branch continuation over the coupling g.

Eigenpairs of a generic operator at one point are labelled by maximal
overlap with the product basis. Branches of H_Rabi over a g-grid use its
parity symmetry instead: H_Rabi splits into two tridiagonal (Jacobi)
chains (0,P), (1,-P), (2,P), ... for P = +-1, solved separately and
embedded back into the 2N basis. Each chain's branches start from the
g = 0 levels and keep their rank from one grid point to the next while
every overlap clears the floor. An unreduced Jacobi matrix has a simple
spectrum, so levels of one chain never cross for g != 0, but near odd
resonances Omega ~ (2k+1) omega they pass through gaps of order g^(2k+1);
there each branch takes the eigenvector of largest overlap, which follows
the diabatic level. Each branch keeps a positive-overlap phase convention.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from .fockmodel import (
    BasisIndex,
    LabeledOperator,
    ModelParams,
    basis_order,
    build_rabi,
    degenerate_basis,
    rabi_bands,
)

__all__ = [
    "Spectrum",
    "BranchFamily",
    "SolverError",
    "GridRefinementError",
    "diagonalize",
    "track_branches",
    "hellmann_feynman_check",
    "convergence_scan",
    "ConvergenceReport",
]

RESIDUAL_TOL = 1e-10
AMBIGUITY_TOL = 1e-6
OVERLAP_THRESHOLD = 1 / math.sqrt(2)
# relative gap below which two g = 0 energies of one chain count as tied
TIE_TOL = 1e-12


class SolverError(RuntimeError):
    """Eigensolver failed to meet the residual or orthonormality bound."""


class GridRefinementError(RuntimeError):
    """Branch continuation could not reach the overlap floor."""


@dataclass
class Spectrum:
    """Eigenpairs of one operator at one parameter point."""

    params: ModelParams | None
    operator_name: str
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    labels: dict[int, BasisIndex]
    ambiguous: list[int]
    trust_cutoff: int

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def spectral_diameter(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    def level_of(self, label: BasisIndex) -> int:
        for k, lab in self.labels.items():
            if lab == label:
                return k
        raise KeyError(f"no level labelled {label}")


def _check_eigenpairs(hv: np.ndarray, w: np.ndarray, v: np.ndarray) -> None:
    """Residual and orthonormality bounds, given the product hv = H @ v."""
    scale = max(1.0, float(np.max(np.abs(w))))
    residual = np.linalg.norm(hv - v * w, axis=0)
    if np.max(residual) > RESIDUAL_TOL * scale:
        raise SolverError(
            f"eigenpair residual {np.max(residual):.3e} exceeds {RESIDUAL_TOL * scale:.3e}"
        )
    ortho = np.max(np.abs(v.T @ v - np.eye(len(w))))
    if ortho > RESIDUAL_TOL:
        raise SolverError(f"eigenvector orthonormality defect {ortho:.3e}")


def _attach_labels(
    v: np.ndarray, basis: list[BasisIndex], at_zero: bool
) -> tuple[dict[int, BasisIndex], list[int]]:
    labels: dict[int, BasisIndex] = {}
    ambiguous: list[int] = []
    used: dict[BasisIndex, int] = {}
    overlaps = np.abs(v)
    for k in range(v.shape[1]):
        col = overlaps[:, k]
        order = np.argsort(col)[::-1]
        best, second = col[order[0]], col[order[1]]
        if best - second < AMBIGUITY_TOL:
            ambiguous.append(k)
            continue
        if not at_zero and best < OVERLAP_THRESHOLD:
            continue
        lab = basis[order[0]]
        if lab in used:
            # keep the stronger claim, demote the other to ambiguous
            other = used[lab]
            if overlaps[order[0], k] > overlaps[lab.k, other]:
                del labels[other]
                ambiguous.append(other)
            else:
                ambiguous.append(k)
                continue
        labels[k] = lab
        used[lab] = k
    return labels, ambiguous


def diagonalize(
    op: LabeledOperator,
    params: ModelParams | None = None,
    trust_cutoff: int | None = None,
) -> Spectrum:
    """Dense symmetric eigensolve with labelling and residual certification."""
    if not op.is_symmetric():
        raise ValueError(f"operator {op.name} is not symmetric")
    try:
        w, v = np.linalg.eigh(op.entries)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigensolver did not converge on {op.name}") from exc
    _check_eigenpairs(op.entries @ v, w, v)
    at_zero = params is not None and params.g == 0
    labels, ambiguous = _attach_labels(v, op.basis, at_zero)
    if trust_cutoff is None:
        trust_cutoff = len(op.basis) // 2 // 4 if params is None else params.n_fock // 4
    return Spectrum(params, op.name, w, v, labels, ambiguous, trust_cutoff)


@dataclass
class BranchFamily:
    """Label-consistent eigenpair curves of H_Rabi over a g-grid."""

    params_base: ModelParams
    g_grid: np.ndarray
    labels: list[BasisIndex]
    energies: np.ndarray  # (n_branch, n_grid)
    vectors: np.ndarray  # (dim, n_branch, n_grid)
    overlap_floor: float

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    def branch_index(self, label: BasisIndex) -> int:
        return self.labels.index(label)

    def grid_index(self, g: float) -> int:
        idx = int(np.argmin(np.abs(self.g_grid - g)))
        if not math.isclose(self.g_grid[idx], g, rel_tol=0, abs_tol=1e-14):
            raise KeyError(f"g={g} is not a grid point")
        return idx

    def energy(self, label: BasisIndex, g: float) -> float:
        return float(self.energies[self.branch_index(label), self.grid_index(g)])

    def vector(self, label: BasisIndex, g: float) -> np.ndarray:
        return self.vectors[:, self.branch_index(label), self.grid_index(g)]

    def to_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["g", "label_n", "label_s", "eigenvalue"])
            for gi, g in enumerate(self.g_grid):
                for b, lab in enumerate(self.labels):
                    w.writerow(
                        [f"{g:.17g}", lab.n, lab.s, f"{self.energies[b, gi]:.17g}"]
                    )

    def vectors_to_json(self, g: float) -> str:
        """Eigenvector columns at one grid point, in the operator JSON format."""
        gi = self.grid_index(g)
        return json.dumps(
            {
                "name": f"branch_vectors(g={g:.17g})",
                "dim": self.dim,
                "basis_convention": "columns ordered as the branch labels",
                "entries": self.vectors[:, :, gi].ravel().tolist(),
            }
        )


def _chains(n_fock: int) -> list[np.ndarray]:
    """Linear indices of the parity chains (0,P), (1,-P), (2,P), ... for P = +1, -1."""
    n = np.arange(n_fock)
    return [2 * n + (n + first) % 2 for first in (0, 1)]


def _tied(a: float, b: float) -> bool:
    return abs(a - b) <= TIE_TOL * max(1.0, abs(a), abs(b))


def _seed_at_zero(params: ModelParams) -> tuple[list[BasisIndex], np.ndarray, np.ndarray]:
    """Branch labels, seed vectors (columns in label order) and energies at g = 0.

    Each tied pair (j,+1), (j+1,-1) (omega = Omega) is seeded by the split
    combinations of `degenerate_basis`: (j,+1) takes the symmetric one.
    """
    labels = basis_order(params.n_fock)
    energies, _ = rabi_bands(params)
    vecs = np.eye(params.dim)
    for j in range(params.n_fock - 1):
        up, dn = BasisIndex(j, 1).k, BasisIndex(j + 1, -1).k
        if _tied(energies[up], energies[dn]):
            vecs[:, up], vecs[:, dn] = degenerate_basis(j, params.n_fock)
    return labels, vecs, energies


def _chain_product(d: np.ndarray, e: np.ndarray, v: np.ndarray) -> np.ndarray:
    tv = d[:, None] * v
    tv[:-1] += e[:, None] * v[1:]
    tv[1:] += e[:, None] * v[:-1]
    return tv


def _continue_chain(
    d: np.ndarray,
    c: np.ndarray,
    g0: float,
    v0: np.ndarray,
    rank0: np.ndarray,
    g1: float,
    floor: float,
    depth: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Solve one chain at g1 and match its eigenpairs to the branches v0 at g0.

    Branch j had rank rank0[j] at g0 and keeps it while every branch's
    overlap clears `floor`. Otherwise each branch takes the eigenvector of
    largest |overlap|; across a crossing too narrow to resolve on the step,
    this follows the diabatic level. If that is no permutation clearing the
    floor either, the step is halved, at most `depth` times. Returns the
    energies and sign-aligned vectors in branch order, the ranks and the
    worst overlap.
    """
    e = g1 * c
    w, v = eigh_tridiagonal(d, e)
    _check_eigenpairs(_chain_product(d, e, v), w, v)
    rank = rank0
    overlap = np.einsum("ij,ij->j", v0, v[:, rank])
    if np.min(np.abs(overlap)) < floor:
        m = v0.T @ v
        rank = np.argmax(np.abs(m), axis=1)
        overlap = m[np.arange(len(rank)), rank]
    worst = float(np.min(np.abs(overlap)))
    if worst >= floor and len(np.unique(rank)) == len(rank):
        return w[rank], v[:, rank] * np.where(overlap < 0, -1.0, 1.0), rank, worst
    if depth <= 0:
        raise GridRefinementError(
            f"overlap {worst:.3f} below floor {floor} between g={g0} and g={g1} "
            "after maximal bisection; refine the grid near this interval"
        )
    gm = 0.5 * (g0 + g1)
    _, vm, rm, o1 = _continue_chain(d, c, g0, v0, rank0, gm, floor, depth - 1)
    w1, v1, r1, o2 = _continue_chain(d, c, gm, vm, rm, g1, floor, depth - 1)
    return w1, v1, r1, min(o1, o2)


def track_branches(
    params_base: ModelParams,
    g_grid,
    overlap_floor: float = 0.8,
    max_refine: int = 6,
) -> BranchFamily:
    """Track every eigenpair of H_Rabi over the grid, seeded at g = 0.

    Each parity chain is solved on its own, and its branches are continued
    from the g = 0 seed by overlap (see `_continue_chain`).
    """
    grid = np.asarray(g_grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("g_grid must be a nonempty 1-d sequence")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("g_grid must be strictly increasing")
    zero_idx = np.where(grid == 0.0)[0]
    if len(zero_idx) == 0:
        raise ValueError("g_grid must contain g = 0 to anchor the labelling")
    i0 = int(zero_idx[0])

    labels, v_seed, e_seed = _seed_at_zero(params_base)
    _, c = rabi_bands(params_base.with_g(1.0))
    dim = params_base.dim
    energies = np.empty((dim, len(grid)))
    vectors = np.zeros((dim, dim, len(grid)))
    energies[:, i0] = e_seed
    vectors[:, :, i0] = v_seed
    floor_seen = 1.0

    for rows in _chains(params_base.n_fock):
        d = e_seed[rows]
        # branch columns (label linear indices), in the g = 0 rank order that
        # the first step tries first
        cols = rows[np.argsort(d, kind="stable")]
        for steps in (range(i0 + 1, len(grid)), range(i0 - 1, -1, -1)):
            v_prev = v_seed[np.ix_(rows, cols)]
            rank = np.arange(len(rows))
            g_prev = 0.0
            for gi in steps:
                w, v, rank, worst = _continue_chain(
                    d, c, g_prev, v_prev, rank, float(grid[gi]), overlap_floor, max_refine
                )
                energies[cols, gi] = w
                vectors[rows[:, None], cols, gi] = v
                floor_seen = min(floor_seen, worst)
                v_prev, g_prev = v, float(grid[gi])

    return BranchFamily(params_base, grid, labels, energies, vectors, floor_seen)


def hellmann_feynman_check(
    branch: BranchFamily,
    v_op: LabeledOperator,
    g: float,
    tol: float = 1e-6,
) -> list[dict]:
    """Compare dE/dg (finite differences) against the Rayleigh value <v, V v>.

    Uses a 4th-order centered stencil with step h = 1e-3 * max(1, |g|); each
    stencil point is diagonalized fresh and matched to the branch by overlap.
    """
    gi = branch.grid_index(g)
    if gi == 0 or gi == len(branch.g_grid) - 1:
        if len(branch.g_grid) > 1:
            raise ValueError("g must be interior to the branch grid")
    h = 1e-3 * max(1.0, abs(g))
    params = branch.params_base

    stencil = {}
    for delta in (-2 * h, -h, h, 2 * h):
        op = build_rabi(params.with_g(g + delta))
        w, v = np.linalg.eigh(op.entries)
        stencil[delta] = (w, v)

    rows = []
    v_mat = v_op.entries
    for b, lab in enumerate(branch.labels):
        vec = branch.vectors[:, b, gi]
        e_at = {}
        for delta, (w, v) in stencil.items():
            k = int(np.argmax(np.abs(vec @ v)))
            e_at[delta] = w[k]
        fd = (e_at[-2 * h] - 8 * e_at[-h] + 8 * e_at[h] - e_at[2 * h]) / (12 * h)
        rayleigh = float(vec @ (v_mat @ vec))
        disc = abs(fd - rayleigh)
        rows.append(
            {
                "label_n": lab.n,
                "label_s": lab.s,
                "fd_slope": fd,
                "rayleigh": rayleigh,
                "discrepancy": disc,
                "ok": disc <= tol,
            }
        )
    return rows


@dataclass
class ConvergenceReport:
    """Per-level eigenvalue drift across increasing truncation sizes."""

    sizes: list[int]
    drifts: np.ndarray
    tol: float
    trust_cutoff: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "sizes": self.sizes,
                "tol": self.tol,
                "trust_cutoff": self.trust_cutoff,
                "drifts": [float(d) for d in self.drifts],
            }
        )


def convergence_scan(
    params: ModelParams, sizes, tol: float = 1e-8
) -> ConvergenceReport:
    """Galerkin trust certification: eigenvalue drift across truncation sizes."""
    sizes = [int(n) for n in sizes]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be strictly increasing")
    spectra = []
    for n in sizes:
        diag, couplings = rabi_bands(ModelParams(params.omega, params.Omega, params.g, n))
        sectors = [eigvalsh_tridiagonal(diag[rows], couplings) for rows in _chains(n)]
        spectra.append(np.sort(np.concatenate(sectors)))
    n_levels = 2 * sizes[0]
    drifts = np.zeros(n_levels)
    for a, b in zip(spectra, spectra[1:]):
        m = min(len(a), n_levels)
        drifts[:m] = np.maximum(drifts[:m], np.abs(a[:m] - b[:m]))
    trusted = 0
    while trusted < n_levels and drifts[trusted] <= tol:
        trusted += 1
    return ConvergenceReport(sizes, drifts, tol, trusted)
