"""The certify path reads H_Rabi's structure: no SVD, the floor from ||X_N||,
the basis change on the window only, and a stencil that needs no interior g."""

import ast
from pathlib import Path

import numpy as np
import pytest

from spinboson import (
    ModelParams,
    build_control,
    build_interaction,
    coupling_graph,
    hellmann_feynman_check,
    labelled_spectrum,
    track_branches,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spinboson"
SVDS = {"svd", "svdvals", "svds"}
MATRIX_NORMS = {2, -2, "nuc"}  # the orders that take singular values


def _literal(node: ast.expr):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def singular_value_calls(path: Path) -> list[str]:
    """`name:line` of each SVD call and each norm call of a singular-value order."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        orders = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "ord"]
        takes_norm = name in ("norm", "matrix_norm")
        if name in SVDS or (takes_norm and any(_literal(o) in MATRIX_NORMS for o in orders)):
            calls.append(f"{name}:{node.lineno}")
    return calls


def test_no_module_takes_singular_values():
    modules = sorted(PACKAGE.glob("*.py"))
    assert PACKAGE / "resonance.py" in modules
    found = {p.name: singular_value_calls(p) for p in modules}
    assert {name: calls for name, calls in found.items() if calls} == {}


def test_singular_value_detector_sees_each_form(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "np.linalg.norm(a, 2)\nnorm(a, ord=-2)\nnp.linalg.norm(a, 'nuc')\n"
        "scipy.linalg.svd(a)\nsvdvals(a)\nnp.linalg.norm(v)\nnp.linalg.norm(r, axis=0)\n"
    )
    assert singular_value_calls(src) == ["norm:1", "norm:2", "norm:3", "svd:4", "svdvals:5"]


@pytest.mark.parametrize("n_fock", [2, 3, 16, 128])
def test_default_floor_is_the_control_norm(n_fock):
    p = ModelParams(1.0, 1.05, 0.0, n_fock)
    b = build_control(p)
    graph = coupling_graph(labelled_spectrum(p), b, window=1)
    dense = 1e-8 * np.linalg.norm(b.entries, 2)
    assert graph.floor == pytest.approx(dense, rel=1e-14, abs=0)


@pytest.mark.parametrize(
    "Omega, g, n_fock, window",
    [(1.05, 0.2, 32, 8), (1.05, -0.3, 32, 8), (1.0, 0.0, 33, 8), (1.1, 0.25, 64, 16)],
)
def test_window_weights_are_the_corner_of_the_full_basis_change(Omega, g, n_fock, window):
    p = ModelParams(1.0, Omega, g, n_fock)
    spec = labelled_spectrum(p)
    b = build_control(p)
    graph = coupling_graph(spec, b, window=window)
    v = spec.eigenvectors
    full = v.T @ b.entries @ v
    nodes = [k for k, _ in graph.nodes]
    expected = [
        (a, c) for i, a in enumerate(nodes) for c in nodes[i + 1 :] if abs(full[a, c]) > graph.floor
    ]
    assert [(e.j, e.k) for e in graph.edges] == expected
    for e in graph.edges:
        assert abs(e.weight - full[e.j, e.k]) <= 1e-13


def test_hellmann_feynman_at_the_grid_ends():
    p = ModelParams(1.0, 1.1, 0.0, 16)
    v_op = build_interaction(p)
    short = track_branches(p, [-0.2, -0.1, 0.0, 0.1, 0.2])
    long = track_branches(p, [-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3])
    for g in (-0.2, 0.2):
        rows = hellmann_feynman_check(short, v_op, g)
        assert rows == hellmann_feynman_check(long, v_op, g)
        assert all(row["ok"] for row in rows)
