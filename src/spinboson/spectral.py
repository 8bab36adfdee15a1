"""Eigensolves, labelling and branch continuation over the coupling g.

`dense_eigh` is the package's one dense symmetric eigensolve, with residual
and orthonormality checks. Eigenpairs of a generic operator at one point are
labelled by maximal overlap with the product basis. H_Rabi uses its parity
symmetry instead: it splits into two tridiagonal (Jacobi) chains (0,P),
(1,-P), (2,P), ... for P = +-1, each solved on its own N rows. An unreduced
Jacobi matrix has a simple spectrum, so levels of one chain never cross for
g != 0: its spectrum at one g, labelled or not, takes one solve per chain,
whose r-th eigenpair, signed as the solver returns it, carries the label of
the chain's r-th bare level. Near a tie (`fockmodel.near_tied`) labels and
signs are read off branches over a g-grid, which start each chain from the
g = 0 levels and keep their rank from one grid point to the next while every
overlap clears the floor. Near odd resonances Omega ~ (2k+1) omega they pass
through gaps of order g^(2k+1); there each branch takes the eigenvector of
largest overlap, which follows the diabatic level. Each branch keeps a
positive-overlap phase convention.

The spectrum is even in g: H(-g) = Pi H(g) Pi for the photon parity
Pi = (-1)^(a^dag a), which on a chain of diagonal d and couplings e is the
sign flip T(d, -e) = D T(d, e) D with D = diag((-1)^r). So the eigenpairs at
-g are (w, D v) for the eigenpairs (w, v) at |g|, exactly, and their residual
entries are those of (w, v) up to sign: the certificate of the solve at |g|
covers both. The LAPACK solver reproduces this bit for bit, returning the
same eigenvalues and D v up to column signs. The continuation and the
Hellmann-Feynman stencil solve each |g| once and mirror it for g < 0.

The chains are solved by the LAPACK drivers that scipy.linalg's
`eigh_tridiagonal` and `eigvalsh_tridiagonal` choose: dstevd (divide and
conquer; SciPy 1.17's `auto` driver for all eigenvalues, not MRRR) with and
without vectors, and dstebz (bisection) for one eigenvalue by index. They are
loaded from SciPy's extension scipy/linalg/_flapack by its file, which skips
the package init of scipy and scipy.linalg (over half of the CLI's start-up),
and called with SciPy's arguments and checks, so results equal scipy.linalg's
bit for bit on the SciPy releases pyproject.toml allows. If the file is
missing, does not load or lacks a driver, importing this module raises
ImportError naming the file.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from types import ModuleType

import numpy as np

from ._io import dump_json, write_csv
from .fockmodel import (
    BasisIndex,
    LabeledOperator,
    ModelParams,
    basis_order,
    degenerate_basis,
    near_tied,
    photon_ladder,
    rabi_bands,
    tied,
)

__all__ = [
    "Spectrum",
    "BranchFamily",
    "SolverError",
    "GridRefinementError",
    "default_window",
    "control_norm",
    "trusted_levels",
    "dense_eigh",
    "diagonalize",
    "rabi_spectrum",
    "labelled_spectrum",
    "track_branches",
    "hellmann_feynman_check",
    "stencil_slope",
    "convergence_scan",
    "ConvergenceReport",
    "galerkin_sizes",
]

RESIDUAL_TOL = 1e-10
TRUST_TOL = 1e-8  # trusted enclosure width / omega; `convergence`'s default drift tol
AMBIGUITY_TOL = 1e-6
OVERLAP_THRESHOLD = 1 / math.sqrt(2)
OVERLAP_FLOOR = 0.8  # continuation overlap below which a step is matched or bisected
SLOPE_TOL = 1e-6  # Hellmann-Feynman slope discrepancy that still counts as ok
# eigenvectors whose residuals a chain solve forms together: whole N x N
# temporaries leave the cache from N = 256 on, and blocks much smaller than 64
# pay numpy's per-call cost (64 was within 5% of the fastest block at N = 64-1024)
_RESIDUAL_BLOCK = 64
_EPS = np.finfo(float).eps  # the machine epsilon 2u, u the unit roundoff
GALERKIN_FLOOR = 16  # the smallest working truncation (`galerkin_sizes`)


class SolverError(RuntimeError):
    """Eigensolver failed to meet the residual or orthonormality bound."""


class GridRefinementError(RuntimeError):
    """Branch continuation could not reach the overlap floor."""


def _load_flapack() -> ModuleType:
    """SciPy's compiled LAPACK bindings `scipy.linalg._flapack`, loaded from
    their file in the installed scipy package without running the `scipy` or
    `scipy.linalg` package init. The extension registers itself under its own
    name, so a later `import scipy.linalg` shares it. Raises ImportError,
    naming the file, when it is missing, does not load or lacks a driver."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("spinboson needs scipy, whose LAPACK extension it loads")
    linalg = os.path.join(scipy.submodule_search_locations[0], "linalg")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(linalg, "_flapack" + suffix)
        if os.path.isfile(path):
            break
    else:
        raise ImportError(f"SciPy's LAPACK extension _flapack is not in {linalg}")
    spec = importlib.util.spec_from_file_location("scipy.linalg._flapack", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for driver in ("dstevd", "dstebz"):
        if not hasattr(module, driver):
            raise ImportError(f"{path} has no LAPACK driver {driver}")
    return module


_flapack = _load_flapack()


def _check_info(info: int, driver: str) -> None:
    """Raise on a LAPACK info code: an illegal argument is a ValueError, as
    scipy.linalg raises it, and a solve that did not converge a SolverError
    whose cause is scipy.linalg's LinAlgError, so it is never taken for bad
    input."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {driver}")
    if info > 0:
        message = f"{driver} did not converge (LAPACK info={info})"
        raise SolverError(message) from np.linalg.LinAlgError(message)


def _chain(d, e) -> tuple[np.ndarray, np.ndarray]:
    """d and e as arrays, refused as scipy.linalg refuses them: non-finite
    entries, or len(d) != len(e) + 1."""
    d, e = np.asarray_chkfinite(d), np.asarray_chkfinite(e)
    if d.size != e.size + 1:
        raise ValueError(f"d ({d.size}) must have one more element than e ({e.size})")
    return d, e


def eigh_tridiagonal(d, e) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and Fortran-ordered eigenvectors of the chain (d, e), as
    `scipy.linalg.eigh_tridiagonal(d, e)` returns them: dstevd with vectors,
    and the 1 x 1 exit that dstevd itself rejects."""
    d, e = _chain(d, e)
    if len(d) == 1:
        return np.array([d[0]], dtype=d.dtype), np.array([[1.0]], dtype=d.dtype)
    w, v, info = _flapack.dstevd(d, e, compute_v=1)
    _check_info(info, "stevd (eigh_tridiagonal)")
    return w, v


def eigvalsh_tridiagonal(d, e, top: bool = False) -> np.ndarray:
    """Eigenvalues of the chain (d, e), as `scipy.linalg.eigvalsh_tridiagonal`
    returns them: all by dstevd, or with top only the largest, by dstebz at
    index len(d) (SciPy's select="i" at (len(d) - 1, len(d) - 1))."""
    d, e = _chain(d, e)
    if len(d) == 1:
        return np.array([d[0]], dtype=d.dtype)
    if not top:
        w, _, info = _flapack.dstevd(d, e, compute_v=0)
        _check_info(info, "stevd (eigh_tridiagonal)")
        return w
    m, w, _, _, info = _flapack.dstebz(d, e, 2, 0.0, 1.0, len(d), len(d), 0.0, "E")
    _check_info(info, "stebz (eigh_tridiagonal)")
    return w[:m]


class Spectrum:
    """Eigenpairs of one operator at one parameter point.

    `trust_cutoff` counts the leading levels that H_Rabi at params, truncated
    to N photons, encloses within TRUST_TOL omega of the untruncated model's
    (`_enclosed_levels`, from the spectrum's own eigenvalues). A count given
    to the constructor or assigned stands; else it is formed when first read,
    once. `trusts` and `trusted_window` read it alone.
    """

    def __init__(
        self,
        params: ModelParams | None,
        eigenvalues: np.ndarray,
        eigenvectors: np.ndarray,
        labels: dict[int, BasisIndex],
        ambiguous: list[int],
        trust_cutoff: int | None = None,
    ):
        self.params = params
        self.eigenvalues = eigenvalues
        self.eigenvectors = eigenvectors
        self.labels = labels
        self.ambiguous = ambiguous
        if trust_cutoff is not None:
            self.trust_cutoff = trust_cutoff

    @functools.cached_property
    def trust_cutoff(self) -> int:
        return _enclosed_levels(self.params, self.eigenvalues)

    def trusts(self, window: int) -> bool:
        """Whether levels 0..window-1 are all trusted."""
        return window <= self.trust_cutoff

    def trusted_window(self, window: int) -> int:
        """`window` cut to the trusted levels."""
        return min(window, self.trust_cutoff)

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


def _check_residuals(residual: np.ndarray, w: np.ndarray) -> None:
    """Residual bound on the norms |H v_i - w_i v_i| of the eigenpairs (w, v),
    relative to max|w| = |H|_2 of the symmetric H solved, so that it does not
    depend on the unit of energy."""
    scale = float(np.max(np.abs(w)))
    if np.max(residual) > RESIDUAL_TOL * scale:
        raise SolverError(
            f"eigenpair residual {np.max(residual):.3e} exceeds {RESIDUAL_TOL * scale:.3e}"
        )


def _check_gram(v: np.ndarray) -> None:
    """Orthonormality bound from the Gram matrix V^T V - I, formed in O(N^3)."""
    ortho = np.max(np.abs(v.T @ v - np.eye(v.shape[1])))
    if ortho > RESIDUAL_TOL:
        raise SolverError(f"eigenvector orthonormality defect {ortho:.3e}")


def _unit_exponent(*arrays) -> int:
    """The k that puts the largest |entry| of `arrays` in [0.5, 1) (0 if all
    are 0). A residual norm formed on an operator and its eigenvalues times
    2^-k squares entries of at most a few units, so it cannot overflow; times
    2^k it is the norm of the inputs as given, bit for bit wherever no scaled
    or unscaled product leaves the normal floats, as scaling by a power of
    two is exact."""
    return math.frexp(max(float(np.max(np.abs(x), initial=0.0)) for x in arrays))[1]


def _chain_residuals(d, e, w, u: np.ndarray) -> np.ndarray:
    """The norms |T u_i - w_i u_i| of the rows u_i of u against the chain
    T = (d, e), _RESIDUAL_BLOCK rows at a time, formed on d, e and w times
    2^-k (`_unit_exponent`), so that no square overflows. Rows read fastest
    when u is C-contiguous, as v.T is for the Fortran-ordered v of LAPACK."""
    k = _unit_exponent(d, e, w)
    d, e, w = np.ldexp(d, -k), np.ldexp(e, -k), np.ldexp(w, -k)
    residual = np.empty(len(w))
    for lo in range(0, len(w), _RESIDUAL_BLOCK):
        at = slice(lo, lo + _RESIDUAL_BLOCK)
        block = u[at]
        r = block * d
        r[:, :-1] += block[:, 1:] * e
        r[:, 1:] += block[:, :-1] * e
        r -= w[at, None] * block
        residual[at] = np.sqrt(np.einsum("ij,ij->i", r, r))
    return np.ldexp(residual, k)


def _kato_radii(residual, nsq, w, scale: float, n: int) -> np.ndarray:
    """Kato radii: each [w_i - r_i, w_i + r_i], ends rounded, holds an
    eigenvalue of a chain T with S = max|d| + 2 max|e| <= `scale`, from the
    computed |T v_i - w_i v_i| (`_chain_residuals`) and nsq_i = |v_i|^2 of
    vectors of n entries, eps = 2u:
        r_i = (residual_i / sqrt(nsq_i) + 4 eps (scale + max|w|)) (1 + (n + 8) eps).
    The rounding argument of the chain certificate: a residual entry, a
    sum of four products, is off by at most gamma_4 < 4.01u times the sum of
    their moduli, a vector of norm at most (S + |w_i|) |v_i|; the other 3.99u
    of the slack's 8u cover the interval ends and the slack's own rounding.
    Sums of n squares are exact to 1 +- gamma_n; the square roots, the
    quotient and the last sum and product add a few u: all within the factor
    1 + (n + 8) eps. The slack is the sum of its two terms, each times 4 eps
    exactly (a power of two), so it rounds once as the sum in brackets would,
    and cannot overflow where scale + max|w| would."""
    slack = 4 * _EPS * scale + 4 * _EPS * np.max(np.abs(w))
    return (residual / np.sqrt(nsq) + slack) * (1 + (n + 8) * _EPS)


def _enclosure_bound(
    d: np.ndarray, e: np.ndarray, w: np.ndarray, v: np.ndarray, residual: np.ndarray
) -> float:
    """An upper bound on max|V^T V - I| for the ascending eigenpairs (w, v) of
    the chain T = (d, e) in O(N^2), or inf when two enclosures touch.

    Each [w_i - rho_i, w_i + rho_i], rho_i the radius of `_kato_radii` (whose
    docstring holds the rounding argument), holds an eigenvalue of T. All N
    pairwise disjoint means one each, so the nearest other eigenvalue is
    delta_i away at least, and Davis-Kahan gives sin(v_i, u_i) <= s_i =
    rho_i / delta_i. As u_i is orthogonal to u_j, |v_i^T v_j| <= n_i n_j
    (s_i + s_j + s_i s_j) with n_i = |v_i|, and the squared norms get N eps.
    """
    n = len(w)
    nsq = np.einsum("ij,ij->j", v, v)
    scale = np.max(np.abs(d)) + 2 * np.max(np.abs(e), initial=0.0)
    rho = _kato_radii(residual, nsq, w, scale, n)
    lo, hi = w - rho, w + rho
    if np.any(lo[1:] <= hi[:-1]):
        return math.inf
    below = np.append(math.inf, w[1:] - hi[:-1])
    above = np.append(lo[1:] - w[:-1], math.inf)
    s1, s2 = np.sort(np.append(rho / np.minimum(below, above), 0.0))[-1:-3:-1]
    top = float(np.max(nsq)) * (1 + n * _EPS)
    return max(float(np.max(np.abs(nsq - 1))) + n * _EPS * top, top * (s1 + s2 + s1 * s2))


def _attach_labels(
    v: np.ndarray, basis: list[BasisIndex]
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
        if best < OVERLAP_THRESHOLD:
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


def default_window(n_fock: int) -> int:
    """Levels a coupling graph covers when no window is given."""
    return n_fock // 4


def control_norm(n_fock: int) -> float:
    """||X (x) 1|| = ||X_N||: the largest root of the Hermite polynomial H_N, which is
    the top eigenvalue of the photon ladder (Golub-Welsch)."""
    return float(eigvalsh_tridiagonal(np.zeros(n_fock), photon_ladder(n_fock), top=True)[0])


def trusted_levels(params: ModelParams) -> int:
    """Levels of H_Rabi at params.g that its truncation to params.n_fock
    photons encloses (`Spectrum.trust_cutoff` of `rabi_spectrum`)."""
    return rabi_spectrum(params).trust_cutoff


def galerkin_sizes(n_fock: int):
    """The working Galerkin truncations a computation at n_fock may run on in
    its place, smallest first: powers of two M >= GALERKIN_FLOOR with
    4 M <= n_fock. The caller keeps the first M whose trust enclosure holds
    every level it reads; see `control._working_sizes` for why 4 M."""
    m = GALERKIN_FLOOR
    while 4 * m <= n_fock:
        yield m
        m *= 2


def _enclosed_levels(params: ModelParams, theta: np.ndarray) -> int:
    """The leading levels whose eigenvalue in the untruncated Rabi model at
    params the ascending eigenvalues theta of H_N enclose within TRUST_TOL
    omega (none when N < g^2 / (2 omega^2)). Per parity chain J, theta_k
    bounds lambda_k(J) above (Ritz). Below: the tail rows n >= N have the
    Gershgorin floor G = omega (N + 1/2) - Omega/2 - |g| (sqrt(N/2) +
    sqrt((N+1)/2)), their least once N >= g^2 / (2 omega^2), and with c =
    |g| sqrt(N/2) the inertia of the Schur complement (Haynsworth) gives
    lambda_k(J) >= min(mu_k, G - c), mu the eigenvalues of J_N with its last
    diagonal entry lowered by c. Both chains' bounds merge in ascending order,
    each widened by (N + 8) eps S, S >= |J_N|_2: a LAPACK solve of N rows is
    taken within N eps S of exact, and 8 eps S covers forming G - c and the
    radius. A theta below its lower bound is no Ritz value and ends the count.
    No square is formed, so g^2 cannot overflow, and every term scales with
    the model: the count is the same at every power-of-two scale."""
    n, (diag, couplings) = params.n_fock, rabi_bands(params)
    omega, g = params.omega, abs(params.g)
    if g > omega * math.sqrt(2 * n):
        return 0
    c, top = g * math.sqrt(n / 2), g * math.sqrt((n + 1) / 2)
    slack = (n + 8) * _EPS * (omega * (n + 0.5) + params.Omega / 2 + 2 * top)
    diag[-2:] -= c  # photon N - 1, the last row of either chain
    mu = np.concatenate([eigvalsh_tridiagonal(diag[rows], couplings) for rows in _chains(n)])
    lower = np.minimum(mu, omega * (n + 0.5) - params.Omega / 2 - top - 2 * c)
    radius = theta - np.sort(lower) + 2 * slack
    inside = (radius >= 0) & (radius <= TRUST_TOL * omega)
    return int(np.argmin(np.append(inside, False)))  # the first level outside


def dense_eigh(matrix: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric matrix, residual and orthonormality checked.
    The solve reads one triangle only, so an asymmetric matrix fails the check.
    The residuals are formed on the matrix and w times 2^-k, k the
    `_unit_exponent` of w, whose largest |entry| bounds the matrix's."""
    try:
        w, v = np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"eigensolver did not converge on {name}") from exc
    k = _unit_exponent(w)
    residual = np.linalg.norm(np.ldexp(matrix, -k) @ v - v * np.ldexp(w, -k), axis=0)
    _check_residuals(np.ldexp(residual, k), w)
    _check_gram(v)
    return w, v


def diagonalize(op: LabeledOperator, params: ModelParams | None = None) -> Spectrum:
    """Dense symmetric eigensolve with labelling and residual certification.
    With `params`, op is taken as H_Rabi at params, and its trust count is
    formed from the eigenvalues only if read, as for `rabi_spectrum`."""
    if not op.is_symmetric():
        raise ValueError(f"operator {op.name} is not symmetric")
    w, v = dense_eigh(op.entries, op.name)
    labels, ambiguous = _attach_labels(v, basis_order(op.dim // 2))
    # a bare operator makes no truncation claim
    return Spectrum(params, w, v, labels, ambiguous, op.dim if params is None else None)


@dataclass
class BranchFamily:
    """Label-consistent eigenpair curves of H_Rabi over a g-grid.

    At grid point gi, branch b is column `columns[gi, b]` of the chain solve
    (the seed at g = 0, the mirrored solve at |g| for g < 0) times
    `signs[gi, b]`; only these choices are stored.
    """

    params_base: ModelParams
    g_grid: np.ndarray
    labels: list[BasisIndex]
    energies: np.ndarray  # (n_branch, n_grid)
    columns: np.ndarray  # (n_grid, n_branch)
    signs: np.ndarray  # (n_grid, n_branch)
    overlap_floor: float

    def vectors_at(self, gi: int) -> np.ndarray:
        """(2N, n_branch) eigenvectors at grid point gi in branch order, re-solved.

        H(-g) = Pi H(g) Pi for the photon parity Pi = (-1)^(a^dag a), and the
        eigenvectors at -g are those at |g| with the rows of odd photon number
        negated, exactly. So at g < 0 the chains are solved at |g| and mirrored,
        as the continuation did, and the vectors match its own bit for bit."""
        g = float(self.g_grid[gi])
        if g == 0:
            return _seed_at_zero(self.params_base)[1][:, self.columns[gi]] * self.signs[gi]
        _, vecs = _chain_eigenpairs(self.params_base.with_g(abs(g)))
        return _placed(vecs, self.columns[gi], self.signs[gi], g < 0)

    def branch_index(self, label: BasisIndex) -> int:
        return self.labels.index(label)

    def trust_cutoff(self, gi: int) -> int:
        """Leading levels at grid point gi that the truncation encloses within
        TRUST_TOL omega of the untruncated model's: `_enclosed_levels` of the
        branch energies there, which are the truncation's eigenvalues."""
        params = self.params_base.with_g(float(self.g_grid[gi]))
        return _enclosed_levels(params, np.sort(self.energies[:, gi]))

    def trusts(self, labels: list[BasisIndex]) -> bool:
        """Whether every level of `labels` is a branch that ranks below
        `trust_cutoff` at every grid point; a level tied with others takes the
        last of their ranks."""
        if not set(labels) <= set(self.labels):
            return False
        branches = [self.branch_index(label) for label in labels]
        for gi, energies in enumerate(self.energies.T):
            ranks = np.searchsorted(np.sort(energies), energies[branches], side="right")
            if np.max(ranks, initial=0) > self.trust_cutoff(gi):
                return False
        return True

    def grid_index(self, g: float) -> int:
        """The index of grid point g, matched to 1e-14 of the grid's largest |g|."""
        idx = int(np.argmin(np.abs(self.g_grid - g)))
        tol = 1e-14 * float(np.max(np.abs(self.g_grid)))
        if not math.isclose(self.g_grid[idx], g, rel_tol=0, abs_tol=tol):
            raise KeyError(f"g={g} is not a grid point")
        return idx

    def energy(self, label: BasisIndex, g: float) -> float:
        return float(self.energies[self.branch_index(label), self.grid_index(g)])

    def to_csv(self, path: str | os.PathLike) -> None:
        n_grid = len(self.g_grid)
        write_csv(
            path,
            ["g", "label_n", "label_s", "eigenvalue"],
            zip(
                np.repeat(self.g_grid, len(self.labels)).tolist(),
                [lab.n for lab in self.labels] * n_grid,
                [lab.s for lab in self.labels] * n_grid,
                self.energies.T.ravel().tolist(),
            ),
        )


def _chains(n_fock: int) -> list[np.ndarray]:
    """Linear indices of the parity chains (0,P), (1,-P), (2,P), ... for P = +1, -1."""
    n = np.arange(n_fock)
    return [2 * n + (n + first) % 2 for first in (0, 1)]


def _ranked(rows: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """A chain's linear indices in the stable ascending order of their bare energies."""
    return rows[np.argsort(energies[rows], kind="stable")]


def _seed_at_zero(params: ModelParams) -> tuple[list[BasisIndex], np.ndarray, np.ndarray]:
    """Branch labels, seed vectors (columns in label order) and energies at g = 0.

    Each tied pair (j,+1), (j+1,-1) (omega = Omega; one `tied` over all j) is
    seeded by `degenerate_basis`'s split combinations; (j,+1) takes the symmetric one.
    """
    labels = basis_order(params.n_fock)
    energies, _ = rabi_bands(params)
    vecs = np.eye(params.dim)
    up = 2 * np.arange(params.n_fock - 1)  # linear index of (j, +1)
    for j in np.flatnonzero(tied(energies[up], energies[up + 3])).tolist():
        vecs[:, 2 * j], vecs[:, 2 * j + 3] = degenerate_basis(j, params.n_fock)
    return labels, vecs, energies


def _solve_chain(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Certified eigenpairs of the chain with diagonal d and off-diagonal e:
    orthonormal by `_enclosure_bound` in O(N^2), else by the Gram matrix."""
    w, v = eigh_tridiagonal(d, e)
    residual = _chain_residuals(d, e, w, v.T)
    _check_residuals(residual, w)
    if _enclosure_bound(d, e, w, v, residual) > RESIDUAL_TOL:
        _check_gram(v)
    return w, v


def _chain_eigenpairs(params: ModelParams) -> tuple[np.ndarray, list[np.ndarray]]:
    """Certified eigenpairs of H_Rabi at params.g, one solve per chain, with no
    trust count: the eigenvalues by solve index (the r-th eigenpair of the chain
    whose r-th row is k has index k) and each chain's N x N eigenvectors."""
    diag, couplings = rabi_bands(params)
    w = np.empty(params.dim)
    vecs = []
    for rows in _chains(params.n_fock):
        w[rows], v = _solve_chain(diag[rows], couplings)
        vecs.append(v)
    return w, vecs


def _placed(vecs: list[np.ndarray], src: np.ndarray, signs=None, mirror: bool = False):
    """The 2N x 2N matrix whose column j is the eigenvector of solve index
    src[j] of the chain solves `vecs` (see `_chain_eigenpairs`), times signs[j]
    if given, each chain's columns placed in one step. With `mirror`, rows of
    odd photon number are negated: the solves at |g| become those at -g (see
    the module docstring).
    """
    n_fock = len(vecs[0])
    dim = 2 * n_fock
    dest = np.empty(dim, dtype=np.intp)
    dest[src] = np.arange(dim)
    # Fortran order, the layout the outputs are computed with (BLAS products
    # round by layout); filled through v.T, whose row j holds column j's
    # entries 2n + slot, where chain `first` holds photon n in slot (n + first) % 2
    v = np.zeros((dim, dim), order="F")
    by_photon = v.T.reshape(dim, n_fock, 2)
    for first, (rows, vc) in enumerate(zip(_chains(n_fock), vecs)):
        cols = dest[rows]
        by_photon[cols, 0::2, first] = vc[0::2].T
        by_photon[cols, 1::2, 1 - first] = -vc[1::2].T if mirror else vc[1::2].T
    if signs is not None:
        v *= signs
    return v


def _rabi_at(params: ModelParams, w, vecs, src, labels, signs=None, mirror=False) -> Spectrum:
    """H_Rabi at params.g from the chain solves (w, vecs), stably sorted ascending
    in the order of src: item b is eigenpair src[b] as `_placed` forms it,
    labelled labels[b] unless labels is None. Its trust is formed from its
    eigenvalues when read (see `Spectrum`)."""
    order = np.argsort(w[src], kind="stable")
    ranked = src[order]
    v = _placed(vecs, ranked, None if signs is None else signs[order], mirror)
    by_rank = {} if labels is None else dict(enumerate(labels[b] for b in order.tolist()))
    return Spectrum(params, w[ranked], v, by_rank, [])


def rabi_spectrum(params: ModelParams) -> Spectrum:
    """Unlabelled spectrum of H_Rabi at params.g, ascending, from its two chains.
    Its trust count (`Spectrum.trust_cutoff`) is formed only if read."""
    return _rabi_at(params, *_chain_eigenpairs(params), np.arange(params.dim), None)


def _continue_chain(
    d: np.ndarray,
    c: np.ndarray,
    g0: float,
    v0: np.ndarray,
    rank0: np.ndarray,
    g1: float,
    depth: int,
    solved: tuple[np.ndarray, np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Solve one chain at g1 and match its eigenpairs to the branches v0 at g0.

    The eigenpairs at g1 are (w, D v) for the certified solve (w, v) at |g1|,
    which `solved` holds when the caller has it, with D = 1 for g1 >= 0 (see
    the module docstring). Branch j had rank rank0[j] at g0 and keeps it while
    every branch's overlap clears OVERLAP_FLOOR. Otherwise each branch takes
    the eigenvector of largest |overlap|; across a crossing too narrow to
    resolve on the step, this follows the diabatic level. If that is no
    permutation clearing the floor either, the step is halved, at most `depth`
    times. Returns the energies and sign-aligned vectors in branch order, the
    ranks, the signs and the worst overlap.
    """
    solve = _solve_chain(d, abs(g1) * c) if solved is None else solved
    w, v = solve
    if g1 < 0:
        v = v * np.where(np.arange(len(d)) % 2, -1.0, 1.0)[:, None]
    rank = rank0
    u = v if np.array_equal(rank, np.arange(len(rank))) else v[:, rank]
    overlap = np.einsum("ij,ij->j", v0, u)
    if np.min(np.abs(overlap)) < OVERLAP_FLOOR:
        m = v0.T @ v
        rank = np.argmax(np.abs(m), axis=1)
        overlap = m[np.arange(len(rank)), rank]
        u = v[:, rank]
    worst = float(np.min(np.abs(overlap)))
    if worst >= OVERLAP_FLOOR and len(np.unique(rank)) == len(rank):
        sign = np.where(overlap < 0, -1.0, 1.0)
        # the solve may serve the other side of g = 0 too: never write into it
        u = u * sign if u is solve[1] else np.multiply(u, sign, out=u)
        return w[rank], u, rank, sign, worst
    if depth <= 0:
        raise GridRefinementError(
            f"overlap {worst:.3f} below floor {OVERLAP_FLOOR} between g={g0} and "
            f"g={g1} after maximal bisection; refine the grid near this interval"
        )
    gm = 0.5 * (g0 + g1)
    _, vm, rm, _, o1 = _continue_chain(d, c, g0, v0, rank0, gm, depth - 1, None)
    w1, v1, r1, s1, o2 = _continue_chain(d, c, gm, vm, rm, g1, depth - 1, solve)
    return w1, v1, r1, s1, min(o1, o2)


def track_branches(params_base: ModelParams, g_grid, max_refine: int = 6) -> BranchFamily:
    """Track every eigenpair of H_Rabi over the grid, seeded at g = 0.

    Each parity chain is solved on its own, and its branches are continued
    from the g = 0 seed by overlap (see `_continue_chain`), out to both sides
    of g = 0 in lockstep by |g|. H(-g) = Pi H(g) Pi for the photon parity Pi,
    so a chain's eigenpairs at -g are those at |g| with the rows of odd photon
    number negated, exactly, and their residuals equal up to sign (see the
    module docstring). A |g| that the grid holds on both sides therefore takes
    one certified solve per chain, which both sides read; bisection midpoints
    are solved on their own.
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
    c = photon_ladder(params_base.n_fock)
    energies = np.empty((params_base.dim, len(grid)))
    energies[:, i0] = e_seed
    columns = np.empty((len(grid), params_base.dim), dtype=np.intp)
    columns[i0] = np.arange(params_base.dim)
    signs = np.ones((len(grid), params_base.dim))
    floor_seen = 1.0
    # g = 0 first, then each side's points in the order it walks them
    by_size = np.argsort(np.abs(grid), kind="stable")[1:]

    for rows in _chains(params_base.n_fock):
        d = e_seed[rows]
        # branch columns (label linear indices), in the g = 0 rank order that
        # the first step tries first
        cols = _ranked(rows, e_seed)
        seed = v_seed[np.ix_(rows, cols)], np.arange(len(rows)), 0.0
        walks = {False: seed, True: seed}  # branch vectors, ranks and g, by g > 0
        at = None  # the |g| that `solved` holds
        for gi in by_size:
            g1 = float(grid[gi])
            if abs(g1) != at:
                solved, at = _solve_chain(d, abs(g1) * c), abs(g1)
            v_prev, rank, g_prev = walks[g1 > 0]
            w, v_prev, rank, sign, worst = _continue_chain(
                d, c, g_prev, v_prev, rank, g1, max_refine, solved
            )
            walks[g1 > 0] = v_prev, rank, g1
            energies[cols, gi], columns[gi, cols], signs[gi, cols] = w, rows[rank], sign
            floor_seen = min(floor_seen, worst)

    return BranchFamily(params_base, grid, labels, energies, columns, signs, floor_seen)


def labelled_spectrum(params: ModelParams) -> Spectrum:
    """Spectrum at params.g labelled by the analytic branches from g = 0.

    At g = 0 these are the bare levels, with the product basis as vectors.
    Else a chain's branches never cross, so unless a chain is `near_tied`,
    each chain's r-th eigenpair from one solve takes the label of its r-th
    bare level, in the seed order of `track_branches`, and the solver's
    signs; near a tie, labels and signs are carried by continuation. As for
    `rabi_spectrum`, its trust count is formed only if read.
    """
    energies, _ = rabi_bands(params)
    if params.g == 0:
        eye, labels = np.eye(params.n_fock), basis_order(params.n_fock)
        return _rabi_at(params, energies, [eye, eye], np.arange(params.dim), labels)
    chains = _chains(params.n_fock)
    if not any(near_tied(energies[rows], params.omega) for rows in chains):
        cols = np.empty(params.dim, dtype=np.intp)  # cols[k]: the column labelled k
        for rows in chains:
            cols[_ranked(rows, energies)] = rows
        return _rabi_at(params, *_chain_eigenpairs(params), cols, basis_order(params.n_fock))
    lo, hi = min(0.0, params.g), max(0.0, params.g)
    grid = np.unique(np.linspace(lo, hi, 21))  # a subnormal g repeats points
    family = track_branches(params, grid)
    gi = family.grid_index(params.g)
    w, vecs = _chain_eigenpairs(params.with_g(abs(params.g)))
    return _rabi_at(
        params, w, vecs, family.columns[gi], family.labels, family.signs[gi], params.g < 0
    )


def stencil_slope(f, h: float) -> float:
    """Fourth-order centred first derivative at 0 of f, sampled at +-h and +-2h."""
    return (f(-2 * h) - 8 * f(-h) + 8 * f(h) - f(2 * h)) / (12 * h)


def hellmann_feynman_check(
    branch: BranchFamily, v_op: LabeledOperator, g: float
) -> list[dict]:
    """Compare dE/dg (finite differences) against the Rayleigh value <v, V v>.

    Uses a 4th-order centered stencil with step h = 1e-3 * max(min(omega,
    Omega), |g|). The step scales with the model, as H(c omega, c Omega, c g)
    = c H(omega, Omega, g), so the slopes do not depend on the unit of energy.
    Each stencil point g + d is read off one solve of the two chains at
    |g + d|, mirrored below 0 (see the module docstring), with no trust count,
    and matched by overlap, so g may be any grid point, an end one included.
    At g = 0 the points -h and -2h share the solves of h and 2h.
    """
    gi = branch.grid_index(g)
    params = branch.params_base
    h = 1e-3 * max(min(params.omega, params.Omega), abs(g))
    vectors = branch.vectors_at(gi)
    solves = {}

    def energies(d: float) -> np.ndarray:
        at = g + d
        if abs(at) not in solves:
            solves[abs(at)] = _chain_eigenpairs(params.with_g(abs(at)))
        w, vecs = solves[abs(at)]
        v = _placed(vecs, np.arange(params.dim), mirror=at < 0)
        return w[np.argmax(np.abs(vectors.T @ v), axis=1)]

    rows = []
    rayleighs = np.einsum("ij,ij->j", vectors, v_op.entries @ vectors).tolist()
    for lab, rayleigh, fd in zip(branch.labels, rayleighs, stencil_slope(energies, h)):
        disc = abs(fd - rayleigh)
        rows.append(
            {
                "label_n": lab.n,
                "label_s": lab.s,
                "fd_slope": fd,
                "rayleigh": rayleigh,
                "discrepancy": disc,
                "ok": disc <= SLOPE_TOL,
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
        return dump_json(
            {
                "sizes": self.sizes,
                "tol": self.tol,
                "trust_cutoff": self.trust_cutoff,
                "drifts": [float(d) for d in self.drifts],
            }
        )


def convergence_scan(
    params: ModelParams, sizes, tol: float = TRUST_TOL
) -> ConvergenceReport:
    """Eigenvalue drift across truncation sizes, the `convergence` command's
    report: its trust_cutoff counts the leading levels whose drift is at most
    the absolute `tol`. Spectra take their trust from `_enclosed_levels`."""
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
