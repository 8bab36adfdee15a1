"""Every eigensolve lives in `spectral`, and its dense solve checks what it returns."""

import ast
from pathlib import Path

import numpy as np
import pytest

from spinboson import (
    BasisIndex,
    ModelParams,
    Pulse,
    SolverError,
    StateVector,
    build_control,
    build_rabi,
    propagate,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spinboson"
EIGENSOLVERS = {"eigh", "eigvalsh", "eigh_tridiagonal", "eigvalsh_tridiagonal"}


def eigensolve_calls(path: Path) -> list[str]:
    """`name:line` of each eigensolver call in the module, parsed, not imported."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func  # np.linalg.eigh(...) or a bare eigh(...)
            name = getattr(func, "attr", getattr(func, "id", None))
            if name in EIGENSOLVERS:
                calls.append(f"{name}:{node.lineno}")
    return calls


def test_only_spectral_calls_eigensolvers():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "spectral.py" in modules
    assert eigensolve_calls(PACKAGE / "spectral.py")
    stray = {p.name: eigensolve_calls(p) for p in modules if p.name != "spectral.py"}
    assert {name: calls for name, calls in stray.items() if calls} == {}


def test_asymmetric_control_fails_the_checked_solve():
    p = ModelParams(1.0, 1.05, 0.2, 8)
    h0, b = build_rabi(p), build_control(p)
    b.entries[0, 2] += 0.5
    psi0 = StateVector(np.eye(p.dim)[BasisIndex(0, -1).k])
    with pytest.raises(SolverError, match="residual"):
        propagate(h0, b, Pulse([(1.0, 0.02)], 0.02), psi0)
