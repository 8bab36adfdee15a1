"""Truncated spin-boson operators on the product Fock basis.

All operators live on the 2N-dimensional space spanned by the product
states (n, s), n = 0..N-1 a photon number and s = +-1 a spin label.
The linear index convention is k = 2n + (1-s)/2, which keeps every
operator built here banded with bandwidth <= 3.

Everything is real symmetric: the oscillator eigenfunctions are chosen
real, so complex numbers only appear in states and propagators.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ModelParams",
    "BasisIndex",
    "LabeledOperator",
    "basis_order",
    "rabi_bands",
    "degenerate_basis",
    "build_rabi",
    "build_jc",
    "build_control",
    "build_interaction",
    "build_parity",
    "build_excitation",
]

BASIS_CONVENTION = "k = 2n + (1-s)/2"


@dataclass(frozen=True)
class ModelParams:
    """Physical constants and truncation size of one truncated system."""

    omega: float
    Omega: float
    g: float
    n_fock: int

    def __post_init__(self):
        for name in ("omega", "Omega", "g"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.Omega <= 0:
            raise ValueError(f"Omega must be positive, got {self.Omega}")
        if not isinstance(self.n_fock, int) or self.n_fock < 2:
            raise ValueError(f"n_fock must be an integer >= 2, got {self.n_fock!r}")

    @property
    def dim(self) -> int:
        return 2 * self.n_fock

    def with_g(self, g: float) -> "ModelParams":
        return ModelParams(self.omega, self.Omega, float(g), self.n_fock)

    def to_dict(self) -> dict:
        return {
            "omega": self.omega,
            "Omega": self.Omega,
            "g": self.g,
            "n_fock": self.n_fock,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        unknown = set(d) - {"omega", "Omega", "g", "n_fock"}
        if unknown:
            raise ValueError(f"unknown key {sorted(unknown)[0]!r} in model params")
        missing = {"omega", "Omega", "g", "n_fock"} - set(d)
        if missing:
            raise ValueError(f"missing key {sorted(missing)[0]!r} in model params")
        return cls(float(d["omega"]), float(d["Omega"]), float(d["g"]), int(d["n_fock"]))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ModelParams":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True, order=True)
class BasisIndex:
    """Product-basis label (n, s) with n >= 0 and s in {-1, +1}."""

    n: int
    s: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"photon number must be >= 0, got {self.n}")
        if self.s not in (-1, 1):
            raise ValueError(f"spin label must be -1 or +1, got {self.s}")

    @property
    def k(self) -> int:
        """Linear index under the documented convention."""
        return 2 * self.n + (1 - self.s) // 2

    @classmethod
    def from_linear(cls, k: int) -> "BasisIndex":
        return cls(k // 2, 1 - 2 * (k % 2))

    def __str__(self):
        return f"({self.n},{'+1' if self.s > 0 else '-1'})"


def basis_order(n_fock: int) -> list[BasisIndex]:
    """Ordered basis list matching the linear index convention."""
    return [BasisIndex.from_linear(k) for k in range(2 * n_fock)]


@dataclass
class LabeledOperator:
    """Real symmetric matrix over the product basis plus metadata."""

    name: str
    entries: np.ndarray
    basis: list[BasisIndex]

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def bandwidth(self) -> int:
        i, j = np.nonzero(self.entries)
        if len(i) == 0:
            return 0
        return int(np.max(np.abs(i - j)))

    def is_symmetric(self) -> bool:
        return np.array_equal(self.entries, self.entries.T)

    def to_json(self) -> str:
        return json.dumps(
            {
                "name": self.name,
                "dim": self.dim,
                "basis_convention": BASIS_CONVENTION,
                "entries": self.entries.ravel().tolist(),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "LabeledOperator":
        d = json.loads(text)
        dim = int(d["dim"])
        entries = np.array(d["entries"], dtype=float).reshape(dim, dim)
        return cls(d["name"], entries, basis_order(dim // 2))

    def to_csv(self, path: str | os.PathLike) -> None:
        """Write nonzero entries as (i, j, value) triplets."""
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["i", "j", "value"])
            for i, j in zip(*np.nonzero(self.entries)):
                w.writerow([int(i), int(j), f"{self.entries[i, j]:.17g}"])


def _empty(params: ModelParams, name: str) -> LabeledOperator:
    dim = params.dim
    return LabeledOperator(name, np.zeros((dim, dim)), basis_order(params.n_fock))


def _set_sym(m: np.ndarray, i, j, value) -> None:
    # assign both triangles the identical float, never symmetrize after the fact
    m[i, j] = value
    m[j, i] = value


def rabi_bands(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and couplings of the truncated Rabi Hamiltonian.

    Returns the diagonal omega*(n + 1/2) + s*Omega/2 in linear-index order
    and the couplings g*sqrt((n+1)/2), n = 0..N-2, which join (n, s) to
    (n+1, -s) for either spin.
    """
    k = np.arange(params.dim)
    n, s = k // 2, 1 - 2 * (k % 2)
    diag = params.omega * (n + 0.5) + s * params.Omega / 2
    couplings = params.g * np.sqrt(np.arange(1, params.n_fock) / 2)
    return diag, couplings


def build_rabi(params: ModelParams) -> LabeledOperator:
    """Truncated Rabi Hamiltonian.

    Diagonal at (n, s): omega*(n + 1/2) + s*Omega/2.
    Coupling between (n, s) and (n+1, -s): g*sqrt((n+1)/2).
    """
    op = _empty(params, "H_Rabi")
    diag, couplings = rabi_bands(params)
    np.fill_diagonal(op.entries, diag)
    up = 2 * np.arange(params.n_fock - 1)  # linear index of (n, +1)
    # (n, +1) <-> (n+1, -1) joins k and k+3; (n, -1) <-> (n+1, +1) joins k+1 and k+2
    _set_sym(op.entries, up, up + 3, couplings)
    _set_sym(op.entries, up + 1, up + 2, couplings)
    return op


def build_jc(params: ModelParams) -> LabeledOperator:
    """Jaynes-Cummings Hamiltonian: Rabi without the counter-rotating pairs.

    Only (n, +1) <-> (n+1, -1) couplings survive; (n, -1) <-> (n+1, +1)
    carry exactly zero.
    """
    op = _empty(params, "H_JC")
    diag, couplings = rabi_bands(params)
    np.fill_diagonal(op.entries, diag)
    up = 2 * np.arange(params.n_fock - 1)  # linear index of (n, +1)
    _set_sym(op.entries, up, up + 3, couplings)
    return op


def degenerate_basis(j: int, n_fock: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit eigenvectors seeding the split branches at omega = Omega, g -> 0.

    Returns (Phi_plus, Phi_minus) = ((Phi_{j,1} +- Phi_{j+1,-1}) / sqrt(2)).
    """
    if j < 0 or j + 1 >= n_fock:
        raise ValueError(f"j={j} out of range for truncation {n_fock}")
    dim = 2 * n_fock
    plus = np.zeros(dim)
    minus = np.zeros(dim)
    up = BasisIndex(j, 1).k
    dn = BasisIndex(j + 1, -1).k
    inv = 1 / math.sqrt(2)
    plus[up] = inv
    plus[dn] = inv
    minus[up] = inv
    minus[dn] = -inv
    return plus, minus


def build_control(params: ModelParams) -> LabeledOperator:
    """Control operator X (x) 1: spin-diagonal photon ladder, independent of g."""
    op = _empty(params, "B_X")
    m = op.entries
    for n in range(params.n_fock - 1):
        for s in (1, -1):
            i = BasisIndex(n, s).k
            j = BasisIndex(n + 1, s).k
            _set_sym(m, i, j, math.sqrt((n + 1) / 2))
    return op


def build_interaction(params: ModelParams) -> LabeledOperator:
    """Coupling operator X (x) sigma_1, so that H_Rabi(g) = H_Rabi(0) + g*V."""
    op = _empty(params, "V")
    m = op.entries
    for n in range(params.n_fock - 1):
        for s in (1, -1):
            i = BasisIndex(n, s).k
            j = BasisIndex(n + 1, -s).k
            _set_sym(m, i, j, math.sqrt((n + 1) / 2))
    return op


def build_parity(params: ModelParams) -> LabeledOperator:
    """Parity operator (-1)^(a^dag a) (x) sigma_3; commutes with H_Rabi."""
    op = _empty(params, "Parity")
    m = op.entries
    for n in range(params.n_fock):
        for s in (1, -1):
            k = BasisIndex(n, s).k
            m[k, k] = s * (-1) ** n
    return op


def build_excitation(params: ModelParams) -> LabeledOperator:
    """Total excitation number C; conserved by H_JC."""
    op = _empty(params, "ExcitationNumber")
    m = op.entries
    for n in range(params.n_fock):
        for s in (1, -1):
            k = BasisIndex(n, s).k
            m[k, k] = n + (1 + s) // 2
    return op
