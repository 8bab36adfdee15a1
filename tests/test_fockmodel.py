import json
import math

import numpy as np
import pytest

from spinboson.fockmodel import (
    BasisIndex,
    LabeledOperator,
    ModelParams,
    basis_order,
    build_control,
    build_excitation,
    build_interaction,
    build_jc,
    build_parity,
    build_rabi,
)

P = ModelParams(1.0, 1.1, 0.3, 4)


def comm(a, b):
    return a.entries @ b.entries - b.entries @ a.entries


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(-1.0, 1.0, 0.0, 4)
    with pytest.raises(ValueError):
        ModelParams(1.0, 0.0, 0.0, 4)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, float("nan"), 4)
    with pytest.raises(ValueError):
        ModelParams(1.0, 1.0, 0.0, 1)
    assert ModelParams(1.0, 1.0, 0.0, 2).dim == 4


def test_basis_index_convention():
    # bijection k = 2n + (1-s)/2
    for k in range(16):
        lab = BasisIndex.from_linear(k)
        assert lab.k == k
    assert BasisIndex(0, 1).k == 0
    assert BasisIndex(0, -1).k == 1
    assert BasisIndex(2, -1).k == 5
    labs = basis_order(4)
    assert len(labs) == 8 and len(set(labs)) == 8


def test_rabi_diagonal():
    h = build_rabi(ModelParams(1.0, 1.1, 0.0, 4))
    k = BasisIndex(2, -1).k
    assert h.entries[k, k] == 1.95
    # g=0 matrix is diagonal
    assert np.count_nonzero(h.entries - np.diag(np.diag(h.entries))) == 0


def test_rabi_coupling_element():
    h = build_rabi(P)
    i, j = BasisIndex(0, 1).k, BasisIndex(1, -1).k
    assert h.entries[i, j] == pytest.approx(0.3 * math.sqrt(0.5), abs=1e-15)


def test_jc_drops_counter_rotating():
    h = build_jc(P)
    assert h.entries[BasisIndex(0, -1).k, BasisIndex(1, 1).k] == 0.0
    assert h.entries[BasisIndex(0, 1).k, BasisIndex(1, -1).k] == pytest.approx(
        0.2121320, abs=1e-7
    )
    p0 = P.with_g(0.0)
    assert np.array_equal(build_jc(p0).entries, build_rabi(p0).entries)


def test_control_elements():
    b = build_control(P)
    assert b.entries[BasisIndex(0, 1).k, BasisIndex(1, 1).k] == pytest.approx(
        math.sqrt(0.5)
    )
    assert b.entries[BasisIndex(0, 1).k, BasisIndex(0, -1).k] == 0.0
    assert b.entries[BasisIndex(1, -1).k, BasisIndex(2, -1).k] == 1.0
    # independent of g
    assert np.array_equal(b.entries, build_control(P.with_g(2.0)).entries)


def test_parity_and_excitation_diagonals():
    c = build_excitation(P)
    assert c.entries[BasisIndex(0, 1).k, BasisIndex(0, 1).k] == 1
    assert c.entries[BasisIndex(0, -1).k, BasisIndex(0, -1).k] == 0
    p = build_parity(P)
    assert p.entries[BasisIndex(0, 1).k, BasisIndex(0, 1).k] == 1
    assert p.entries[BasisIndex(3, -1).k, BasisIndex(3, -1).k] == 1


@pytest.mark.parametrize(
    "builder", [build_rabi, build_jc, build_control, build_interaction]
)
def test_exact_symmetry_and_bandwidth(builder):
    op = builder(P)
    assert np.array_equal(op.entries, op.entries.T)
    assert op.bandwidth <= 3


def test_conservation_identities():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = ModelParams(
            float(rng.uniform(0.5, 2)),
            float(rng.uniform(0.5, 2)),
            float(rng.uniform(-1, 1)),
            int(rng.integers(2, 16)),
        )
        assert np.max(np.abs(comm(build_jc(p), build_excitation(p)))) == 0.0
        assert np.max(np.abs(comm(build_rabi(p), build_parity(p)))) == 0.0


def test_control_breaks_parity():
    b = build_control(P)
    parity = build_parity(P)
    assert np.max(np.abs(comm(b, parity))) > 0
    flipped = parity.entries @ b.entries @ parity.entries
    assert np.array_equal(flipped, -b.entries)


def test_g_linearity():
    h0 = build_rabi(P.with_g(0.0)).entries
    h1 = build_rabi(P.with_g(1.0)).entries
    hg = build_rabi(P.with_g(0.37)).entries
    assert np.allclose(hg - h0, 0.37 * (h1 - h0), atol=1e-15)
    # V is exactly the g-slope
    assert np.array_equal(build_interaction(P).entries, h1 - h0)


def test_params_json_roundtrip():
    text = P.to_json()
    assert ModelParams.from_json(text) == P
    with pytest.raises(ValueError):
        ModelParams.from_dict({"omega": 1, "Omega": 1, "g": 0, "n_fock": 4, "bad": 1})


def test_operator_json_roundtrip():
    h = build_rabi(P)
    back = LabeledOperator.from_json(h.to_json())
    assert back.name == h.name
    assert np.array_equal(back.entries, h.entries)
    assert back.to_json() == h.to_json()


def test_operator_csv(tmp_path):
    h = build_rabi(P)
    path = tmp_path / "op.csv"
    h.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "i,j,value"
    assert len(lines) - 1 == np.count_nonzero(h.entries)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_operator_csv_refuses_non_finite(tmp_path, bad):
    op = LabeledOperator("bad", np.array([[1.0, bad], [bad, 1.0]]))
    path = tmp_path / "op.csv"
    with pytest.raises(RuntimeError, match="non-finite"):
        op.to_csv(path)
    assert not path.exists()
