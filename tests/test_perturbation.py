import math

import numpy as np
import pytest

from spinboson import (
    BasisIndex,
    ModelParams,
    build_interaction,
    c_coefficients,
    coupling_slope_closed,
    coupling_slope_fit,
    degenerate_basis,
    degenerate_slopes,
    e2_closed,
    e4_closed,
    e_series_fit,
    track_branches,
)
from spinboson.perturbation import FIT_DEGREE, FIT_POINTS, FIT_WINDOW, build_table


def make_branch(omega=1.0, Omega=1.1, n_fock=32, window=FIT_WINDOW, n_points=FIT_POINTS):
    p = ModelParams(omega, Omega, 0.0, n_fock)
    return track_branches(p, np.linspace(-window, window, n_points))


def test_e2_spot_values():
    # exactly 5 in real arithmetic; a few ulps off in floats
    assert e2_closed(BasisIndex(0, 1), 1.0, 1.1) == pytest.approx(5.0, rel=1e-14)
    assert e2_closed(BasisIndex(0, -1), 1.0, 1.1) == pytest.approx(
        -0.2380952, abs=1e-7
    )


def test_e2_rejects_degenerate():
    with pytest.raises(ValueError):
        e2_closed(BasisIndex(0, 1), 1.0, 1.0)
    with pytest.raises(ValueError):
        e4_closed(BasisIndex(0, 1), 1.0, 1.0)
    with pytest.raises(ValueError):
        c_coefficients(1, 1.0, 1.0)


def test_e2_rejects_near_tie():
    # 1e-13 apart, omega and Omega still tie: the closed form would return 5e12
    with pytest.raises(ValueError):
        e2_closed(BasisIndex(0, 1), 1.0, 1.0 + 1e-13)


def test_e2_two_term_sum_cross_check():
    # independent oracle: -(omega - s*Omega)^-1 (n+1)/2 + (omega + s*Omega)^-1 n/2
    for n in range(6):
        for s in (1, -1):
            for omega, Omega in ((1.0, 1.1), (1.0, 0.9), (0.7, 1.3)):
                direct = -((n + 1) / 2) / (omega - s * Omega) + (n / 2) / (
                    omega + s * Omega
                )
                assert e2_closed(BasisIndex(n, s), omega, Omega) == pytest.approx(
                    direct, rel=1e-14
                )


def test_c2_spot_value():
    _, _, c2 = c_coefficients(1, 1.0, 1.1)
    assert c2 == pytest.approx(-274.97, rel=1e-2)
    assert c2 == pytest.approx(1.1 * (1 + 3 * 1.1**2) / (2 * (1 - 1.1**2) ** 3))


def test_e4_quadratic_in_n():
    for s in (1, -1):
        for omega, Omega in ((1.0, 1.1), (1.0, 0.9)):
            c0, c1, c2 = c_coefficients(s, omega, Omega)
            for n in range(8):
                quad = c0 + c1 * n + c2 * n * n
                assert e4_closed(BasisIndex(n, s), omega, Omega) == pytest.approx(
                    quad, rel=1e-12, abs=1e-12
                )


def test_e4_gap_separation_same_spin():
    # equal n-differences with different endpoints never share a gap at order 4
    omega, Omega = 1.0, 1.1
    for s in (1, -1):
        e4 = lambda n: e4_closed(BasisIndex(n, s), omega, Omega)
        for ni, nj, nk, nl in [(1, 0, 2, 1), (2, 0, 3, 1), (3, 2, 5, 4)]:
            assert abs((e4(ni) - e4(nj)) - (e4(nk) - e4(nl))) > 1e-12


def test_fit_recovers_e0():
    # the default narrow window keeps the truncated-series bias below 1e-10;
    # a +-0.05 window with degree 6 leaves a ~3e-5 bias in the constant term
    branch = make_branch()
    for n in range(4):
        for s in (1, -1):
            fit = e_series_fit(branch, BasisIndex(n, s))
            e0 = 1.0 * (n + 0.5) + s * 1.1 / 2
            assert fit.coefficient(0) == pytest.approx(e0, abs=1e-10)


def test_fit_odd_coefficients_vanish():
    branch = make_branch(window=0.05)
    for n in range(6):
        for s in (1, -1):
            fit = e_series_fit(branch, BasisIndex(n, s), degree=6)
            assert abs(fit.coefficient(1)) <= 1e-6
            assert abs(fit.coefficient(3)) <= 1e-6


@pytest.mark.parametrize("Omega", [1.1, 0.9])
def test_fit_matches_e2(Omega):
    branch = make_branch(Omega=Omega)
    for n in range(6):
        for s in (1, -1):
            fit = e_series_fit(branch, BasisIndex(n, s))
            closed = e2_closed(BasisIndex(n, s), 1.0, Omega)
            assert fit.coefficient(2) == pytest.approx(closed, rel=1e-4)


@pytest.mark.parametrize("Omega", [1.1, 0.9])
def test_fit_quartic_leading_coefficient(Omega):
    branch = make_branch(Omega=Omega)
    for s in (1, -1):
        e4_fit = [
            e_series_fit(branch, BasisIndex(n, s)).coefficient(4) for n in range(6)
        ]
        quad = np.polyfit(np.arange(6), e4_fit, 2)
        _, _, c2 = c_coefficients(s, 1.0, Omega)
        assert quad[0] == pytest.approx(c2, rel=1e-2)


def test_fit_rejects_bad_grids():
    p = ModelParams(1.0, 1.1, 0.0, 8)
    asym = track_branches(p, np.linspace(-0.01, 0.02, 7))
    with pytest.raises(ValueError):
        e_series_fit(asym, BasisIndex(0, 1), degree=2)
    small = track_branches(p, np.linspace(-0.01, 0.01, 5))
    with pytest.raises(ValueError):
        e_series_fit(small, BasisIndex(0, 1), degree=6)


def test_coupling_slope_closed_value_and_independence():
    val = coupling_slope_closed(BasisIndex(0, 1), BasisIndex(0, -1), 1.0, 1.1)
    assert val == pytest.approx(4.7619048, abs=1e-7)
    for n in range(6):
        for s in (1, -1):
            assert (
                coupling_slope_closed(BasisIndex(n, s), BasisIndex(n, -s), 1.0, 1.1)
                == val
            )
    with pytest.raises(ValueError):
        coupling_slope_closed(BasisIndex(0, 1), BasisIndex(1, -1), 1.0, 1.1)
    with pytest.raises(ValueError):
        coupling_slope_closed(BasisIndex(0, 1), BasisIndex(0, 1), 1.0, 1.1)


def test_coupling_slope_fit_matches_closed():
    h = 1e-3
    p = ModelParams(1.0, 1.1, 0.0, 32)
    branch = track_branches(p, np.array([-2 * h, -h, 0.0, h, 2 * h]))
    closed = coupling_slope_closed(BasisIndex(0, 1), BasisIndex(0, -1), 1.0, 1.1)
    for n in range(6):
        for s in (1, -1):
            fd = coupling_slope_fit(branch, BasisIndex(n, s), BasisIndex(n, -s), h)
            assert fd == pytest.approx(closed, abs=1e-3)


def test_degenerate_basis_properties():
    plus, minus = degenerate_basis(0, 8)
    assert np.linalg.norm(plus) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(minus) == pytest.approx(1.0, abs=1e-14)
    assert abs(plus @ minus) < 1e-14
    with pytest.raises(ValueError):
        degenerate_basis(7, 8)


def test_degenerate_slopes_and_rayleigh():
    p = ModelParams(1.0, 1.0, 0.0, 8)
    v = build_interaction(p).entries
    for j in range(5):
        up, dn = degenerate_slopes(j)
        assert up == pytest.approx(math.sqrt((j + 1) / 2))
        assert dn == -up
        plus, minus = degenerate_basis(j, 8)
        assert plus @ (v @ plus) == pytest.approx(up, abs=1e-13)
        assert minus @ (v @ minus) == pytest.approx(dn, abs=1e-13)
        assert abs(plus @ (v @ minus)) < 1e-13
    assert degenerate_slopes(0)[0] == pytest.approx(0.7071068, abs=1e-7)


def test_build_table_consistency():
    p = ModelParams(1.0, 1.1, 0.0, 32)
    rows = build_table(p, levels=[BasisIndex(0, 1), BasisIndex(1, -1)])
    for row in rows:
        assert row.e1 == 0.0 and row.e3 == 0.0
        assert row.e2_fit == pytest.approx(row.e2, rel=1e-4)
        assert abs(row.e1_fit) <= 1e-6
        assert row.coupling_slope == pytest.approx(4.7619048, abs=1e-7)
