"""A transfer's populations and fidelities against a 30-digit reference.

The transfer's outputs come from one rounded period operator P applied over
and over, so their error grows with the kept count. The reference here solves
H0 and H0 + delta*B with `mpmath.mp.eigsy` at 30 digits and applies the exact
P = M^T Phi_0 M Phi_delta of the same pulse (the report's half-period and
count), so it carries no double rounding. Each sampled population, the edge
fidelity and the final fidelity must be within `PER_SEGMENT` per segment of
it, both for the transfer, whose free (u = 0) eigenbasis is the labelled
spectrum's chain solves, and for one that solves H0 densely. Most of that
error is the rounding of P, which each basis rounds its own way, so the bases
themselves are compared by their residuals.
"""

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")
from mpmath import mp  # noqa: E402

from spinboson import (  # noqa: E402
    BasisIndex,
    ModelParams,
    build_control,
    build_rabi,
    labelled_spectrum,
    transfer_experiment,
)
from spinboson.control import SegmentPropagator  # noqa: E402
from spinboson.spectral import dense_eigh  # noqa: E402

SOURCE = BasisIndex(0, -1)
# The reference's own error is ~1e-29. Per segment, the transfers below were
# off by at most 9.6e-16 on the chain basis and 1.5e-15 on the dense one.
PER_SEGMENT = 2e-15
FLOOR = 1e-14
SAMPLES = 16


def mp_power(p, n):
    """p**n by repeated squaring."""
    out = mp.eye(p.rows)
    while n:
        if n & 1:
            out = out * p
        n >>= 1
        if n:
            p = p * p
    return out


def mp_eigenpairs(matrix):
    """30-digit eigenvalues and eigenvectors of a real symmetric matrix."""
    with mp.workdps(30):
        return mp.eigsy(mp.matrix(matrix.tolist()))


def worst_residual(matrix, w, v):
    """max_j |matrix v_j - w_j v_j| of a double eigendecomposition, at 30 digits."""
    with mp.workdps(30):
        vectors = mp.matrix(v.tolist())
        r = mp.matrix(matrix.tolist()) * vectors - vectors * mp.diag(w.tolist())
        return max(float(mp.norm(r[:, j])) for j in range(r.cols))


def reference_populations(params, delta, half, source, levels, periods):
    """|<l|psi_k>|^2 for the H0 eigenstates l in `levels`, where psi_k is the
    H0 eigenstate `source` after 2k + 1 half-periods `half` of the square wave
    from u = delta, at k = 0, s, 2s, ... below `periods` and at periods - 1;
    returns (ks, populations)."""
    h0 = build_rabi(params).entries
    e0, q0 = mp_eigenpairs(h0)
    ed, qd = mp_eigenpairs(h0 + delta * build_control(params).entries)
    with mp.workdps(30):
        m = q0.T * qd
        phase_0 = mp.diag([mp.expj(-e * half) for e in e0])
        phase_d = mp.diag([mp.expj(-e * half) for e in ed])
        p = m.T * phase_0 * m * phase_d  # one period in the driven eigenbasis
        rows = mp.matrix([[q0[i, l] for i in range(q0.rows)] for l in levels]) * qd * phase_d
        c = qd.T * q0[:, source]
        stride = max(1, (periods - 1) // SAMPLES)
        ks = [*range(0, periods - 1, stride), periods - 1]
        p_stride, out = mp_power(p, stride), []
        for k, last in zip(ks, [0, *ks]):
            c = (p_stride if k - last == stride else mp_power(p, k - last)) * c
            amplitudes = rows * c
            out.append([float(abs(a) ** 2) for a in amplitudes])
        return ks, np.array(out)


class _DenseFree(SegmentPropagator):
    """A propagator that solves H0 densely, as transfers did before they took
    its eigenpairs from the labelled spectrum."""

    def __init__(self, h0, b, delta, free=None):
        super().__init__(h0, b, delta)


@pytest.mark.parametrize(
    "params, target, segments",
    [
        (ModelParams(1.0, 0.7, 0.2, 8), BasisIndex(0, 1), 3555),
        (ModelParams(1.0, 1.05, -0.3, 8), BasisIndex(1, -1), 3009),
        (ModelParams(1.0, 2.2, 0.4, 8), BasisIndex(1, -1), 1609),
    ],
    ids=["cross-spin", "ladder-negative-g", "ladder-Omega-2.2"],
)
def test_transfer_error_per_segment(monkeypatch, params, target, segments):
    delta = 0.02
    spec = labelled_spectrum(params)
    chain = transfer_experiment(params, SOURCE, target, delta, spectrum=spec)
    monkeypatch.setattr("spinboson.control.SegmentPropagator", _DenseFree)
    dense = transfer_experiment(params, SOURCE, target, delta, spectrum=spec)
    (edge,) = chain.edges
    assert edge["n_segments"] == dense.edges[0]["n_segments"] == segments
    assert edge["half_period"] == dense.edges[0]["half_period"]

    periods = (segments + 1) // 2
    ks, exact = reference_populations(
        params, delta, edge["half_period"], spec.level_of(SOURCE), chain.tracked_levels, periods
    )
    far = chain.tracked_levels.index(edge["edge"][1])
    # rows 2k and 2k + 1: after the driven half-period k and the free one
    # after it, which leaves H0 populations as they were
    rows = [2 * k + j for k in ks for j in (0, 1) if 2 * k + j < segments]
    expected = exact[[ks.index(r // 2) for r in rows]]
    bound = FLOOR + PER_SEGMENT * (np.array(rows) + 1)[:, None]
    for report in (chain, dense):
        populations = np.array([row["p"] for row in report.populations])
        assert np.all(np.abs(populations[rows] - expected) <= bound)
        for fid in (report.edges[0]["fidelity"], report.fidelity):
            assert abs(fid - exact[-1, far]) <= FLOOR + PER_SEGMENT * segments


@pytest.mark.parametrize(
    "params",
    [
        ModelParams(1.0, 0.7, 0.2, 8),
        ModelParams(1.0, 1.05, -0.3, 8),
        ModelParams(1.0, 2.2, 0.4, 8),
        ModelParams(1.0, 1.0, 0.3, 8),
    ],
)
def test_chain_free_basis_is_no_less_accurate(params):
    """H0's eigenpairs from the chain solves against the dense solve's: the
    worst residual at 30 digits is no larger, up to one rounding of |H0|."""
    h0 = build_rabi(params).entries
    spec = labelled_spectrum(params)
    chain = worst_residual(h0, spec.eigenvalues, spec.eigenvectors)
    dense = worst_residual(h0, *dense_eigh(h0, "H0"))
    assert chain <= dense + np.finfo(float).eps * np.abs(spec.eigenvalues).max()
