import math

import numpy as np
import pytest

from spinboson import (
    BasisIndex,
    GridRefinementError,
    ModelParams,
    build_interaction,
    build_rabi,
    convergence_scan,
    diagonalize,
    hellmann_feynman_check,
    track_branches,
)
from spinboson.perturbation import e0_closed, e2_closed
from spinboson.control import labelled_spectrum
from spinboson.spectral import _seed_at_zero


def bare_energy(n, s, omega, Omega):
    return omega * (n + 0.5) + s * Omega / 2


def test_diagonalize_uncoupled_spectrum():
    p = ModelParams(1.0, 1.1, 0.0, 8)
    spec = diagonalize(build_rabi(p), p)
    expected = sorted(
        bare_energy(n, s, 1.0, 1.1) for n in range(8) for s in (1, -1)
    )
    assert np.max(np.abs(spec.eigenvalues - expected)) < 1e-12
    assert spec.eigenvalues[0] == pytest.approx(-0.05, abs=1e-12)
    assert spec.eigenvalues[1] == pytest.approx(0.95, abs=1e-12)
    assert spec.eigenvalues[2] == pytest.approx(1.05, abs=1e-12)
    # labels invert the sort: level 1 is (1,-1), level 2 is (0,+1)
    assert spec.labels[0] == BasisIndex(0, -1)
    assert spec.labels[1] == BasisIndex(1, -1)
    assert spec.labels[2] == BasisIndex(0, 1)


def test_diagonalize_diagonal_input():
    p = ModelParams(1.0, 1.3, 0.0, 6)
    spec = diagonalize(build_rabi(p), p)
    # eigenvectors of a diagonal matrix are coordinate vectors
    assert np.max(np.abs(np.abs(spec.eigenvectors) - np.abs(spec.eigenvectors.round()))) < 1e-12


def test_diagonalize_degenerate_multiplicity():
    p = ModelParams(1.0, 1.0, 0.0, 16)
    spec = diagonalize(build_rabi(p), p)
    w = spec.eigenvalues
    assert w[0] == pytest.approx(0.0, abs=1e-12)
    # every eigenvalue except the lowest (and the truncation-edge top one)
    # appears with multiplicity 2
    for k in range(1, 2 * 16 - 1, 2):
        assert w[k + 1] - w[k] < 1e-12


def test_diagonalize_rejects_asymmetric():
    p = ModelParams(1.0, 1.1, 0.1, 4)
    op = build_rabi(p)
    op.entries[0, 1] += 1.0
    with pytest.raises(ValueError):
        diagonalize(op, p)


def test_track_branches_single_point():
    p = ModelParams(1.0, 1.1, 0.0, 6)
    fam = track_branches(p, [0.0])
    for lab in fam.labels:
        assert fam.energy(lab, 0.0) == pytest.approx(
            bare_energy(lab.n, lab.s, 1.0, 1.1), abs=1e-14
        )


def test_track_branches_requires_zero():
    p = ModelParams(1.0, 1.1, 0.0, 6)
    with pytest.raises(ValueError):
        track_branches(p, [0.1, 0.2])
    with pytest.raises(ValueError):
        track_branches(p, [0.2, 0.0, 0.1])


def test_branch_even_in_g():
    p = ModelParams(1.0, 1.1, 0.0, 32)
    grid = np.linspace(-0.2, 0.2, 9)
    fam = track_branches(p, grid)
    lab = BasisIndex(0, -1)
    for g in (0.05, 0.1, 0.2):
        assert abs(fam.energy(lab, g) - fam.energy(lab, -g)) < 1e-10


def test_degenerate_branch_slopes_via_tracking():
    p = ModelParams(1.0, 1.0, 0.0, 32)
    h = 1e-4
    fam = track_branches(p, np.array([-2 * h, -h, 0.0, h, 2 * h]))
    for j in range(4):
        for lab, sign in ((BasisIndex(j, 1), 1.0), (BasisIndex(j + 1, -1), -1.0)):
            e = fam.energies[fam.branch_index(lab)]
            slope = (e[0] - 8 * e[1] + 8 * e[3] - e[4]) / (12 * h)
            assert slope == pytest.approx(sign * math.sqrt((j + 1) / 2), abs=1e-6)


def test_degenerate_seed_orthonormal():
    labels, vecs, energies = _seed_at_zero(ModelParams(1.0, 1.0, 0.0, 8))
    assert np.max(np.abs(vecs.T @ vecs - np.eye(16))) < 1e-14
    assert len(labels) == 16


def test_hellmann_feynman_zero_slope_at_origin():
    p = ModelParams(1.0, 1.1, 0.0, 32)
    fam = track_branches(p, np.linspace(-0.01, 0.01, 5))
    rows = hellmann_feynman_check(fam, build_interaction(p), 0.0)
    for row in rows[:12]:
        assert abs(row["fd_slope"]) < 1e-6
        assert abs(row["rayleigh"]) < 1e-6
        assert row["ok"]


def test_hellmann_feynman_degenerate_rayleigh():
    p = ModelParams(1.0, 1.0, 0.0, 32)
    fam = track_branches(p, np.linspace(-0.01, 0.01, 5))
    rows = hellmann_feynman_check(fam, build_interaction(p), 0.0)
    row = next(r for r in rows if r["label_n"] == 0 and r["label_s"] == 1)
    assert row["rayleigh"] == pytest.approx(math.sqrt(0.5), abs=1e-7)


def test_hellmann_feynman_generic_g():
    p = ModelParams(1.0, 1.1, 0.0, 32)
    fam = track_branches(p, np.linspace(0.0, 0.3, 7))
    rows = hellmann_feynman_check(fam, build_interaction(p), 0.2)
    for row in rows[:16]:
        assert row["discrepancy"] <= 1e-6


def test_convergence_scan_uncoupled_exact():
    p = ModelParams(1.0, 1.1, 0.0, 8)
    rep = convergence_scan(p, [8, 16, 32])
    # the diagonal model is truncation-exact except at the edge level, whose
    # rank in the sorted spectrum changes with the truncation
    assert np.max(rep.drifts[:-1]) == 0.0
    assert rep.trust_cutoff >= 15


def test_convergence_scan_trusted_levels():
    p = ModelParams(1.0, 1.1, 0.3, 32)
    rep = convergence_scan(p, [32, 64, 128])
    assert np.max(rep.drifts[:10]) <= 1e-8
    assert rep.trust_cutoff >= 10


def test_branch_family_csv(tmp_path):
    p = ModelParams(1.0, 1.1, 0.0, 4)
    fam = track_branches(p, np.linspace(-0.05, 0.05, 5))
    path = tmp_path / "branches.csv"
    fam.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "g,label_n,label_s,eigenvalue"
    assert len(lines) - 1 == 5 * 8


@pytest.mark.parametrize("Omega", [3.0, 3.0 - 1e-10, 3.0 + 1e-10])
def test_resonant_pairs_follow_second_order_shift(Omega):
    # near Omega = 3 omega, (n,+1) and (n+3,-1) (nearly) tie at g = 0 in one
    # parity chain and are coupled only at third order; for g != 0 they are
    # split by E2, positive for (n,+1) and negative for (n+3,-1). Off exact
    # resonance they cross at g ~ 1e-5, which the branches follow diabatically.
    p = ModelParams(1.0, Omega, 0.0, 16)
    fam = track_branches(p, np.linspace(-0.01, 0.01, 5))
    for n in range(5):
        up, dn = BasisIndex(n, 1), BasisIndex(n + 3, -1)
        for g in (-0.01, -0.005, 0.005, 0.01):
            assert fam.energy(up, g) > fam.energy(dn, g)
            for lab in (up, dn):
                series = e0_closed(lab, 1.0, Omega) + g**2 * e2_closed(lab, 1.0, Omega)
                assert fam.energy(lab, g) == pytest.approx(series, abs=1e-6)


def test_grid_refinement_error():
    p = ModelParams(1.0, 1.1, 0.0, 32)
    with pytest.raises(GridRefinementError):
        track_branches(p, [0.0, 2.0], max_refine=0)
    fam = track_branches(p, [0.0, 2.0])
    assert 0.8 <= fam.overlap_floor < 1.0


@pytest.mark.parametrize("Omega", [2.999, 3.001])
def test_labels_continuous_across_resonance(Omega):
    # at Omega = 3 +- 1e-3 the pairs (n,+1), (n+3,-1) cross near g = 0.03
    # through a gap of order g^3, finer than any bisected step; each label
    # keeps its diabatic level, whose energy moves by |dE/dOmega| = 1/2 per
    # unit of Omega, while a swapped pair would differ by about g^2 |E2 gap|
    g = 0.2
    ref = labelled_spectrum(ModelParams(1.0, 3.0, g, 32))
    spec = labelled_spectrum(ModelParams(1.0, Omega, g, 32))
    for k, lab in ref.labels.items():
        if lab.n < 8:
            shift = spec.eigenvalues[spec.level_of(lab)] - ref.eigenvalues[k]
            assert abs(shift) < 1e-3
