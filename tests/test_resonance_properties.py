"""The array-based gap-collision searches against brute-force loops.

`reference_scan` and `reference_quadruple_check` are the original nested
loops over every pair of level pairs and every ordered quadruple; the
library must reproduce their reports byte for byte.
"""

import itertools
import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson import degenerate_quadruple_check, numeric_resonance_scan  # noqa: E402
from spinboson.fockmodel import BasisIndex  # noqa: E402
from spinboson.perturbation import degenerate_slopes  # noqa: E402
from spinboson.resonance import _EXACT_TOL, ScanReport  # noqa: E402
from spinboson.spectral import Spectrum  # noqa: E402


def reference_scan(spectrum, window, tol):
    w = spectrum.eigenvalues[:window]
    pairs = list(itertools.combinations(range(window), 2))
    raw = []
    filtered = []
    for (a, b) in itertools.combinations(pairs, 2):
        diff = abs(abs(w[a[1]] - w[a[0]]) - abs(w[b[1]] - w[b[0]]))
        if diff < tol:
            raw.append((a, b, float(diff)))
            if len(set(a) & set(b)) == 1:
                filtered.append((a, b, float(diff)))
    return ScanReport(window, tol, raw, filtered)


def reference_quadruple_check(window, omega):
    # energies in units of omega: the gaps are integers and the slopes do not
    # depend on omega, so neither does the report
    branches = [(0.0, 0.0, BasisIndex(0, -1))]
    j = 0
    while len(branches) < window:
        up, dn = degenerate_slopes(j)
        branches.append((float(j + 1), up, BasisIndex(j, 1)))
        branches.append((float(j + 1), dn, BasisIndex(j + 1, -1)))
        j += 1
    branches = branches[:window]

    violations = []
    n_checked = 0
    idx = range(len(branches))
    for a, b in itertools.permutations(idx, 2):
        for c, d in itertools.product(idx, idx):
            if (a, b) == (c, d):
                continue
            n_checked += 1
            e = (branches[a][0] - branches[b][0]) - (branches[c][0] - branches[d][0])
            if abs(e) > _EXACT_TOL:
                continue
            sdiff = (branches[a][1] - branches[b][1]) - (
                branches[c][1] - branches[d][1]
            )
            if abs(sdiff) <= _EXACT_TOL:
                violations.append(tuple(str(branches[x][2]) for x in (a, b, c, d)))
    return {
        "window": window,
        "n_quadruples": n_checked,
        "violations": violations,
        "n_violations": len(violations),
    }


def spectrum_of(levels):
    w = np.asarray(levels, dtype=float)
    return Spectrum(
        params=None,
        eigenvalues=w,
        eigenvectors=np.eye(len(w)),
        labels={},
        ambiguous=[],
        trust_cutoff=len(w),
    )


@st.composite
def planted_spectra(draw):
    """Sorted levels whose steps repeat, some shifted by multiples of tol.

    Steps on a quarter grid give exactly equal gaps; the shifts put gap
    differences at and around tol, where the rounding decides, and exactly
    at tol when tol is a quarter or a half.
    """
    window = draw(st.integers(0, 16))
    tol = draw(
        st.sampled_from([0.25, 0.5]) | st.floats(-12, -0.5).map(lambda x: 10.0**x)
    )
    steps = draw(
        st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]) | st.floats(0, 2),
            min_size=max(window - 1, 0),
            max_size=max(window - 1, 0),
        )
    )
    shifts = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0]),
            min_size=len(steps),
            max_size=len(steps),
        )
    )
    base = draw(st.floats(-10, 10))
    levels = base + np.cumsum([0.0] + [s + k * tol for s, k in zip(steps, shifts)])
    return levels[:window], tol


@settings(max_examples=150, deadline=None, derandomize=True)
@given(planted_spectra())
@example(([], 1e-9))
@example(([0.5], 1e-9))
@example(([0.5, 1.5], 1e-9))
@example(([0.0, 1.0, 2.0, 3.0, 4.0], 1e-9))
@example(([0.0, 1.0, 2.0 + 1e-9, 3.0 + 2e-9], 1e-9))
@example(([0.0, 1.0, 2.25], 0.25))  # gap difference exactly tol: no collision
def test_scan_matches_loop(planted):
    levels, tol = planted
    spec = spectrum_of(levels)
    window = len(spec.eigenvalues)
    got = numeric_resonance_scan(spec, window, tol).to_json()
    assert got == reference_scan(spec, window, tol).to_json()


@pytest.mark.parametrize("omega", [1e-13, 1e-12, 0.5, 1.0, 3.7])
def test_quadruple_check_matches_loop(omega):
    # the gaps are compared in units of omega, so omega = 1e-13, whose gaps
    # all lie within the absolute tolerance, reports what omega = 1 does
    for window in range(25):
        got = degenerate_quadruple_check(window, omega)
        assert json.dumps(got) == json.dumps(reference_quadruple_check(window, omega))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(planted_spectra(), st.data())
def test_scan_ignores_labels(planted, data):
    """Relabelling a spectrum (permuting, dropping or keeping its labels)
    leaves the scan report unchanged to the byte: the scan reads only levels."""
    levels, tol = planted
    spec = spectrum_of(levels)
    window = len(spec.eigenvalues)
    plain = numeric_resonance_scan(spec, window, tol).to_json()
    labels = [BasisIndex(k // 2, 1 if k % 2 else -1) for k in range(window)]
    perm = data.draw(st.permutations(range(window)))
    keep = data.draw(st.lists(st.booleans(), min_size=window, max_size=window))
    variants = {
        "as-is": {k: labels[k] for k in range(window)},
        "permuted": {k: labels[perm[k]] for k in range(window)},
        "dropped": {k: labels[k] for k in range(window) if keep[k]},
    }
    for name, relabelled in variants.items():
        spec.labels = relabelled
        assert numeric_resonance_scan(spec, window, tol).to_json() == plain, name
