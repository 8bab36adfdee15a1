"""The transfer search in blocks of B periods per giant step.

`driven_fidelities(psi, far, half, horizon)` reads B = `_block_size(horizon,
2N)` consecutive fidelities per product with P^B. Its curve must equal the
stepped one to `SEARCH_TOL`, and the first strict maximum, which `_sweep`
keeps, must sit where the per-period search (no horizon, B = 1) puts it.
`max_periods` is drawn at small fixed values, at and just past each
horizon 2B (2N + B) where B doubles, and above 4 (2N)^2, where B is capped
by 2N.
"""

import itertools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson import BasisIndex, ModelParams, build_control, build_rabi  # noqa: E402
from spinboson import control  # noqa: E402
from spinboson.control import SegmentPropagator, _block_size  # noqa: E402
from test_transfer_search import ITERATE_TOL, SEARCH_TOL, fidelity  # noqa: E402

BLOCK_EDGES = [1, 3, 4, 15, 16, 63, 64]


def first_strict_max(start, curve):
    """The kept period count of `_sweep`: 0 if no period beats `start`."""
    best, kept = start, 0
    for m, fid in enumerate(curve):
        if fid > best:
            best, kept = fid, m + 1
    return kept


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(2, 20),
    Omega=st.floats(0.2, 3.0),
    g=st.one_of(st.floats(-0.5, -0.01), st.floats(0.01, 0.5)),
    delta=st.floats(0.005, 0.1),
    data=st.data(),
)
def test_blocked_search_matches_the_stepped_curve(n_fock, Omega, g, delta, data):
    params = ModelParams(1.0, Omega, g, n_fock)
    dim = params.dim
    doublings = [2 * b * (dim + b) for b in (1, 2, 4, 8, 16) if 2 * b <= dim]
    max_periods = data.draw(
        st.one_of(
            st.sampled_from(BLOCK_EDGES),
            st.builds(int.__add__, st.sampled_from(doublings), st.integers(0, 1)),
            st.integers(4 * dim**2 + 1, 4 * dim**2 + 64),
        ),
        label="max_periods",
    )
    prop = SegmentPropagator(build_rabi(params), build_control(params), delta)
    # drive the ground state at the mean Hamiltonian's lowest gap
    w_mean, _ = prop._decomposition(delta / 2)
    gap = w_mean[1] - w_mean[0]
    assume(gap > 1e-6)
    half = math.pi / gap
    v0 = prop._decomposition(0.0)[1]
    psi, far = v0[:, 0].astype(complex), v0[:, 1]

    blocked = list(
        itertools.islice(prop.driven_fidelities(psi, far, half, max_periods), max_periods)
    )
    single = list(itertools.islice(prop.driven_fidelities(psi, far, half), max_periods))
    stepped, cur = [], psi
    for seg in range(2 * max_periods - 1):
        cur = prop.step(cur, half, delta if seg % 2 == 0 else 0.0)
        if seg % 2 == 0:
            stepped.append(fidelity(far, cur))

    assert len(blocked) == len(stepped) == max_periods
    assert np.max(np.abs(np.subtract(blocked, stepped))) <= SEARCH_TOL
    start = fidelity(far, psi)
    assert first_strict_max(start, blocked) == first_strict_max(start, single)


def test_block_size_rule():
    assert _block_size(None, 64) == 1
    for dim in range(1, 40):
        for horizon in [*range(1, 1200), 10**5, 10**6]:
            block = _block_size(horizon, dim)
            if horizon < 4:
                assert block == 1
            assert block & (block - 1) == 0  # a power of two
            assert block <= dim and block**2 <= horizon
            # each doubling saved more giant-step flops than its squaring and
            # rows cost, and the next one would not, or would outgrow dim
            b = block // 2
            assert block == 1 or horizon > 2 * b * (dim + b)
            assert 2 * block > dim or horizon <= 2 * block * (dim + block)
    assert _block_size(2000, 128) == 8
    assert _block_size(2000, 256) == 4
    assert _block_size(2000, 10) == 8
    assert _block_size(2000, 2048) == 1  # a squaring would cost 2048 products
    assert _block_size(10**6, 16) == 16


def test_sweep_blocks_by_max_periods(monkeypatch):
    seen = []

    def record(horizon, dim):
        seen.append((horizon, dim))
        return _block_size(horizon, dim)

    monkeypatch.setattr(control, "_block_size", record)
    params = ModelParams(1.0, 1.05, 0.2, 8)
    control.transfer_experiment(
        params, BasisIndex(0, -1), BasisIndex(1, -1), 0.02, window=2, max_periods=100
    )
    assert seen == [(100, params.dim)]


@pytest.mark.parametrize(
    "n_fock, target, max_periods, block",
    [
        (16, BasisIndex(1, -1), 3, 1),
        (16, BasisIndex(1, -1), 100, 2),
        (16, BasisIndex(1, -1), 200, 4),
        (16, BasisIndex(0, 1), 2000, 32),
        (8, BasisIndex(1, -1), 2000, 16),
    ],
)
def test_blocked_transfer_equals_per_period_transfer(
    monkeypatch, n_fock, target, max_periods, block
):
    """The kept counts, the times and the levels do not depend on B; the
    fidelities and populations, read from B-dependent products, to roundoff."""
    params = ModelParams(1.0, 1.05, 0.2, n_fock)
    assert _block_size(max_periods, params.dim) == block

    def run():
        return control.transfer_experiment(
            params, BasisIndex(0, -1), target, 0.02, max_periods=max_periods
        )

    blocked = run()
    monkeypatch.setattr(control, "_block_size", lambda horizon, dim: 1)
    single = run()
    assert single.tracked_levels == blocked.tracked_levels
    assert len(single.edges) == len(blocked.edges)
    for one, many in zip(single.edges, blocked.edges):
        assert one["n_segments"] == many["n_segments"]
        assert one["half_period"] == many["half_period"]
        assert abs(one["fidelity"] - many["fidelity"]) <= ITERATE_TOL
    assert [r["t"] for r in single.populations] == [r["t"] for r in blocked.populations]
    p_single = np.array([r["p"] for r in single.populations])
    p_blocked = np.array([r["p"] for r in blocked.populations])
    assert p_single.shape == p_blocked.shape
    assert np.all(np.abs(p_single - p_blocked) <= ITERATE_TOL)
    assert abs(single.fidelity - blocked.fidelity) <= ITERATE_TOL
