import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson import ModelParams, basis_order, build_parity, build_rabi, track_branches  # noqa: E402


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(2, 32),
    Omega=st.floats(0.2, 6.0),
    step=st.floats(0.005, 0.05),
    n_lo=st.integers(0, 10),
    n_hi=st.integers(0, 10),
)
# exact and near odd resonances, where levels of one chain tie at g = 0 or
# cross through gaps of order g^3 and g^5
@example(32, 1.0, 0.05, 10, 10)
@example(32, 3.0, 0.05, 10, 10)
@example(32, 3.0 - 1e-10, 0.05, 10, 10)
@example(32, 2.999, 0.02, 10, 10)
@example(32, 5.0 - 1e-3, 0.05, 10, 10)
@example(32, 5.0 + 1e-10, 0.05, 10, 10)
def test_track_branches_properties(n_fock, Omega, step, n_lo, n_hi):
    # Omega just off omega = 1 leaves two levels closer than their
    # first-order coupling at g = 0 without tying them: the identity seed is
    # then not the small-g limit, and continuation rightly refuses
    assume(Omega == 1.0 or abs(Omega - 1.0) > 0.01)
    grid = step * np.arange(-n_lo, n_hi + 1)
    p = ModelParams(1.0, Omega, 0.0, n_fock)
    fam = track_branches(p, grid)

    assert fam.labels == basis_order(n_fock)
    vectors = np.stack([fam.vectors_at(gi) for gi in range(len(grid))], axis=-1)
    parity = np.diag(build_parity(p).entries)
    for b, lab in enumerate(fam.labels):
        # every branch lives on the sector of its label
        assert not np.any(vectors[parity != parity[lab.k], b, :])
    # consecutive overlaps along each branch are positive (steps are kept
    # small: across a step the tracker had to halve, only the halves are aligned)
    overlaps = np.einsum("kbg,kbg->bg", vectors[:, :, :-1], vectors[:, :, 1:])
    assert np.all(overlaps > 0)
    for sector in (1, -1):
        # the spectrum of each sector is simple off g = 0
        members = parity == sector
        sector_e = np.sort(fam.energies[members], axis=0)
        assert np.all(np.diff(np.delete(sector_e, n_lo, axis=1), axis=0) > 0)
    for gi, g in enumerate(grid):
        ref = np.linalg.eigvalsh(build_rabi(p.with_g(g)).entries)
        scale = max(1.0, float(np.max(np.abs(ref))))
        assert np.max(np.abs(np.sort(fam.energies[:, gi]) - ref)) <= 1e-10 * scale
