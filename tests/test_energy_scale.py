"""No answer depends on the unit of energy.

The resonant Rabi model has no scale of its own: H(c omega, c Omega, c g) =
c H(omega, Omega, g). So ties are relative, the quadruple orders come from the
closed forms in units of omega, and the Hellmann-Feynman stencil step scales
with the model. Scaling by 2^k is exact in floating point, so the properties
below ask for equal answers, not close ones.
"""

import json

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinboson import BasisIndex, ModelParams, build_interaction, classify_quadruple
from spinboson import perturbation, spectral
from spinboson.cli import EXIT_INPUT, main
from spinboson.fockmodel import TIE_TOL, tied

LEVELS = [BasisIndex(n, s) for n in range(4) for s in (1, -1)]  # 8 levels


@st.composite
def near_pairs(draw):
    """(a, b) with b within a few TIE_TOL of a, or anywhere within 10x."""
    a = draw(st.floats(1e-3, 1e3)) * draw(st.sampled_from([1.0, -1.0]))
    rel = draw(
        st.floats(-4 * TIE_TOL, 4 * TIE_TOL)
        | st.sampled_from([0.0, TIE_TOL, -TIE_TOL])
        | st.floats(-0.9, 9.0)
    )
    return a, a * (1 + rel)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(near_pairs(), st.integers(-900, 900))
@example((1.0, 2.0), -50)
@example((1.0, 2.0), -43)  # omega ~ 1.1e-13, Omega = 2 omega
@example((1.0, 1.0 + 1e-11), -40)
def test_tied_does_not_depend_on_the_unit(pair, k):
    a, b = pair
    scale = 2.0**k
    assert tied(a * scale, b * scale) == tied(a, b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(LEVELS),
    st.sampled_from(LEVELS),
    st.sampled_from(LEVELS),
    st.sampled_from(LEVELS),
    st.sampled_from([0.4, 1.7, 3.001]) | st.floats(0.2, 5.0).filter(lambda r: abs(r - 1) > 0.01),
    st.integers(-900, 900),
)
@example(*LEVELS[0:8:2], 1.7, -20)
@example(*LEVELS[0:8:2], 1.7, 13)
@example(LEVELS[0], LEVELS[1], LEVELS[2], LEVELS[3], 1.7, 27)
def test_quadruple_order_does_not_depend_on_the_unit(i, j, k, l, ratio, power):
    assume(i != j and (i, j) != (k, l))
    omega, scale = 0.75, 2.0**power
    base = classify_quadruple(i, j, k, l, omega, ratio * omega)
    scaled = classify_quadruple(i, j, k, l, omega * scale, ratio * omega * scale)
    assert scaled.resolution_order == base.resolution_order
    assert scaled.gap_difference == base.gap_difference * scale


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(-13, 8), st.sampled_from([16, 32, 64]))
@example(-6, 16)
@example(4, 16)
def test_degenerate_slopes_meet_the_closed_forms_at_any_omega(log_omega, n_fock):
    model = ModelParams(10.0**log_omega, 10.0**log_omega, 0.0, n_fock)
    family = spectral.track_branches(model, [0.0])
    rows = spectral.hellmann_feynman_check(family, build_interaction(model), 0.0)
    for j in range(n_fock - 1):
        up, dn = perturbation.degenerate_slopes(j)
        for lab, closed in ((BasisIndex(j, 1), up), (BasisIndex(j + 1, -1), dn)):
            miss = abs(rows[family.branch_index(lab)]["fd_slope"] - closed)
            assert miss <= spectral.SLOPE_TOL, (lab, miss)


def test_degenerate_refuses_a_small_nonresonant_model(tmp_path, capsys):
    model = {"omega": 1e-13, "Omega": 2e-13, "g": 0.0, "n_fock": 16}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": model, "output_dir": str(tmp_path / "out")}))
    assert main(["degenerate", "--config", str(path)]) == EXIT_INPUT
    assert "model.Omega" in capsys.readouterr().err
    assert not (tmp_path / "out" / "degenerate.json").exists()
