"""End-to-end acceptance checks, one per published criterion.

Each test prints a single pass/fail line (run pytest with -s to see them
inline; they also appear in captured output on failure). Criteria are
evaluated at their stated tolerances and runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from spinboson import (
    BasisIndex,
    ModelParams,
    Pulse,
    StateVector,
    build_control,
    build_excitation,
    build_jc,
    build_parity,
    build_rabi,
    c_coefficients,
    certify_chain,
    convergence_scan,
    coupling_graph,
    coupling_slope_closed,
    coupling_slope_fit,
    degenerate_quadruple_check,
    degenerate_slopes,
    diagonalize,
    e2_closed,
    e_series_fit,
    gap_scaling_exponent,
    numeric_resonance_scan,
    propagate,
    track_branches,
    transfer_experiment,
)
from spinboson.control import labelled_spectrum


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:02d}] {name}: {verdict}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def test_criterion_01_uncoupled_spectrum():
    start = time.perf_counter()
    worst = 0.0
    for omega, Omega in ((1.0, 1.1), (1.0, 0.9)):
        p = ModelParams(omega, Omega, 0.0, 64)
        spec = diagonalize(build_rabi(p), p)
        for k, lab in spec.labels.items():
            if lab.n < 16:
                bare = omega * (lab.n + 0.5) + lab.s * Omega / 2
                worst = max(worst, abs(spec.eigenvalues[k] - bare))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report(1, "uncoupled spectrum", ok, f"max err {worst:.2e}, {elapsed:.2f}s")


# Polynomial fits of tracked branches back the next three criteria. The odd
# coefficients are checked on the wide window where parity alone keeps them
# at zero; the even coefficients use a narrower window and higher degree so
# the truncated-series bias stays below the stated relative tolerances (the
# series' convergence radius for these levels is about 0.03).
LEVELS = [BasisIndex(n, s) for n in range(6) for s in (1, -1)]


def test_criterion_02_odd_orders_vanish():
    start = time.perf_counter()
    p = ModelParams(1.0, 1.1, 0.0, 64)
    branch = track_branches(p, np.linspace(-0.05, 0.05, 21))
    worst = 0.0
    for lev in LEVELS:
        fit = e_series_fit(branch, lev, degree=6)
        worst = max(worst, abs(fit.coefficient(1)), abs(fit.coefficient(3)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 30.0
    report(2, "odd orders vanish", ok, f"max |E1|,|E3| {worst:.2e}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def narrow_branches():
    grid = np.linspace(-0.01, 0.01, 21)
    return {
        Omega: track_branches(ModelParams(1.0, Omega, 0.0, 64), grid)
        for Omega in (1.1, 0.9)
    }


def test_criterion_03_second_order(narrow_branches):
    # 5.0 in exact arithmetic; float evaluation of the closed form lands
    # within a few ulps because 1.1^2 - 1 is not representable as 0.21
    assert math.isclose(e2_closed(BasisIndex(0, 1), 1.0, 1.1), 5.0, rel_tol=1e-14)
    worst = 0.0
    for Omega, branch in narrow_branches.items():
        for lev in LEVELS:
            fitted = e_series_fit(branch, lev, degree=8).coefficient(2)
            closed = e2_closed(lev, 1.0, Omega)
            worst = max(worst, abs(fitted - closed) / abs(closed))
    ok = worst <= 1e-4
    report(3, "second-order coefficient", ok, f"max rel err {worst:.2e}")


def test_criterion_04_fourth_order(narrow_branches):
    start = time.perf_counter()
    worst = 0.0
    for Omega, branch in narrow_branches.items():
        for s in (1, -1):
            e4_fit = [
                e_series_fit(branch, BasisIndex(n, s), degree=8).coefficient(4)
                for n in range(6)
            ]
            lead = np.polyfit(np.arange(6), e4_fit, 2)[0]
            c2 = c_coefficients(s, 1.0, Omega)[2]
            worst = max(worst, abs(lead - c2) / abs(c2))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-2 and elapsed < 60.0
    report(4, "fourth-order coefficient", ok, f"max rel err {worst:.2e}")


def test_criterion_05_coupling_slope():
    h = 1e-3
    p = ModelParams(1.0, 1.1, 0.0, 64)
    branch = track_branches(p, np.array([-2 * h, -h, 0.0, h, 2 * h]))
    closed = coupling_slope_closed(BasisIndex(0, 1), BasisIndex(0, -1), 1.0, 1.1)
    slopes = [
        coupling_slope_fit(branch, BasisIndex(n, s), BasisIndex(n, -s), h)
        for n in range(6)
        for s in (1, -1)
    ]
    worst = max(abs(v - closed) for v in slopes)
    spread = max(slopes) - min(slopes)
    ok = worst <= 1e-3 and spread <= 1e-3
    report(5, "coupling slope", ok, f"max err {worst:.2e}, spread {spread:.2e}")


def test_criterion_06_degenerate_case():
    h = 1e-4
    p = ModelParams(1.0, 1.0, 0.0, 64)
    family = track_branches(p, np.array([-2 * h, -h, 0.0, h, 2 * h]))
    worst = 0.0
    for j in range(6):
        up, dn = degenerate_slopes(j)
        for lab, closed in ((BasisIndex(j, 1), up), (BasisIndex(j + 1, -1), dn)):
            e = family.energies[family.branch_index(lab)]
            numeric = (e[0] - 8 * e[1] + 8 * e[3] - e[4]) / (12 * h)
            worst = max(worst, abs(numeric - closed))
    check = degenerate_quadruple_check(12, 1.0)
    ok = worst <= 1e-6 and check["n_violations"] == 0
    report(
        6,
        "degenerate slopes and quadruples",
        ok,
        f"max slope err {worst:.2e}, {check['n_violations']} violations",
    )


def test_criterion_07_resonance_certification():
    base = ModelParams(1.0, 1.05, 0.0, 64)
    b = build_control(base)
    all_clean = True
    all_connected = True
    for g in np.linspace(0.05, 0.5, 10):
        spec = labelled_spectrum(base.with_g(float(g)))
        spec.trust_cutoff = max(spec.trust_cutoff, 12)
        scan = numeric_resonance_scan(spec, 12, 1e-9)
        all_clean = all_clean and not scan.filtered
        graph = coupling_graph(spec, b, window=12)
        cert = certify_chain(graph)
        all_connected = all_connected and cert.connected and len(cert.witness) == 11
    spec0 = diagonalize(build_rabi(base), base)
    cert0 = certify_chain(coupling_graph(spec0, b, window=12))
    two_components = (not cert0.connected) and len(cert0.components) == 2
    ok = all_clean and all_connected and two_components
    report(
        7,
        "resonance certification",
        ok,
        f"clean={all_clean}, witnesses={all_connected}, g=0 split={two_components}",
    )


def test_criterion_08_scaling_law():
    p = ModelParams(1.0, 1.1, 0.0, 32)
    slope2 = gap_scaling_exponent(
        p, BasisIndex(0, 1), BasisIndex(0, -1), BasisIndex(1, 1), BasisIndex(1, -1)
    )
    slope4 = gap_scaling_exponent(
        p, BasisIndex(1, 1), BasisIndex(0, 1), BasisIndex(2, 1), BasisIndex(1, 1)
    )
    ok = abs(slope2 - 2) <= 0.15 and abs(slope4 - 4) <= 0.15
    report(8, "quadruple scaling law", ok, f"slopes {slope2:.3f}, {slope4:.3f}")


def test_criterion_09_conservation_suite():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(100):
        p = ModelParams(
            float(rng.uniform(0.3, 2.0)),
            float(rng.uniform(0.3, 2.0)),
            float(rng.uniform(-1.0, 1.0)),
            int(rng.integers(2, 24)),
        )
        jc, c = build_jc(p).entries, build_excitation(p).entries
        rabi, parity = build_rabi(p).entries, build_parity(p).entries
        worst = max(
            worst,
            float(np.max(np.abs(jc @ c - c @ jc))),
            float(np.max(np.abs(rabi @ parity - parity @ rabi))),
        )
    p = ModelParams(1.0, 1.05, 0.2, 16)
    h0, b = build_rabi(p), build_control(p)
    psi0 = StateVector(np.eye(p.dim)[0].astype(complex))
    pulse = Pulse([(0.4, 0.02 * (k % 2)) for k in range(1000)], 0.02)
    out = propagate(h0, b, pulse, psi0)
    drift = abs(float(np.linalg.norm(out.amplitudes)) - 1.0)
    ok = worst == 0.0 and drift <= 1e-9
    report(9, "conservation suite", ok, f"commutators {worst:.1e}, drift {drift:.1e}")


def test_criterion_10_transfer():
    start = time.perf_counter()
    p = ModelParams(1.0, 1.05, 0.2, 64)
    ladder = transfer_experiment(p, BasisIndex(0, -1), BasisIndex(1, -1), 0.02)
    cross = transfer_experiment(p, BasisIndex(0, -1), BasisIndex(0, 1), 0.02)
    elapsed = time.perf_counter() - start
    ok = ladder.fidelity >= 0.95 and cross.fidelity >= 0.90 and elapsed < 300.0
    report(
        10,
        "state transfer",
        ok,
        f"ladder {ladder.fidelity:.4f}, cross-spin {cross.fidelity:.4f}, {elapsed:.0f}s",
    )


def test_criterion_11_galerkin_trust():
    rep = convergence_scan(ModelParams(1.0, 1.1, 0.3, 64), [64, 128])
    worst = float(np.max(rep.drifts[:10]))
    ok = worst <= 1e-8
    report(11, "truncation trust", ok, f"max drift {worst:.2e}")
