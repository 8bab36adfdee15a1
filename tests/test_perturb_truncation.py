"""`build_table` fits on the smallest working truncation M whose trust
enclosure holds every fitted level at every grid point, and on n_fock when
none does; every row names the truncation it was fitted on."""

import json

import numpy as np
import pytest

from spinboson import BasisIndex, ModelParams, perturbation, spectral
from spinboson._io import dump_json
from spinboson.cli import EXIT_OK, main

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def levels(max_n: int) -> list[BasisIndex]:
    return [BasisIndex(n, s) for n in range(max_n + 1) for s in (1, -1)]


def grid(window: float = perturbation.FIT_WINDOW, n_points: int = perturbation.FIT_POINTS):
    m = n_points // 2
    return window * np.arange(-m, m + 1) / m


def run_perturb(tmp_path, n_fock: int, **perturb) -> tuple[str, str]:
    out = tmp_path / "out"
    cfg = {
        "model": {"omega": 1.0, "Omega": 1.05, "g": 0.2, "n_fock": n_fock},
        "perturb": perturb,
        "output_dir": str(out),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["perturb", "--config", str(path)]) == EXIT_OK
    return (out / "perturb.json").read_text(), (out / "perturb.csv").read_text()


# Omega away from the tie at omega and from the odd resonances at 3 and 5
# omega, where branches pass through narrow gaps
omegas = st.one_of(st.floats(0.3, 0.8), st.floats(1.2, 2.7), st.floats(3.3, 4.7))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    n_fock=st.sampled_from([64, 128]),
    Omega=omegas,
    window=st.floats(1e-3, 0.05),
    max_n=st.integers(0, 8),
)
def test_fitted_levels_on_m_match_n_fock(n_fock, Omega, window, max_n):
    """Each fitted level's energy on M lies within 2 TRUST_TOL omega of its
    energy on n_fock at every grid point: both enclose the same untruncated
    level within TRUST_TOL omega."""
    params, fitted = ModelParams(1.0, Omega, 0.0, n_fock), levels(max_n)
    g = grid(window)
    small = perturbation._fitted_family(params, g, fitted)
    full = spectral.track_branches(params, g)
    for lev in fitted:
        drift = small.energies[small.branch_index(lev)] - full.energies[full.branch_index(lev)]
        assert np.max(np.abs(drift)) <= 2 * spectral.TRUST_TOL * params.omega


def test_default_table_fits_on_sixteen_photons():
    params = ModelParams(1.0, 1.05, 0.2, 256)
    family = perturbation._fitted_family(params, grid(), levels(5))
    assert family.params_base.n_fock == 16
    # the enclosure's count is the spectrum's at every grid point
    for gi, g in enumerate(family.g_grid.tolist()):
        expect = spectral.rabi_spectrum(ModelParams(1.0, 1.05, g, 16)).trust_cutoff
        assert family.trust_cutoff(gi) == expect
    assert min(family.trust_cutoff(gi) for gi in range(len(family.g_grid))) > 12


def test_levels_that_m_does_not_trust_fall_back_to_n_fock():
    # n <= 15 reaches the top of the 16-photon truncation, which it does not
    # enclose; 32 would not do either, as 4 * 32 > 64
    params = ModelParams(1.0, 1.05, 0.2, 64)
    family = spectral.track_branches(ModelParams(1.0, 1.05, 0.2, 16), grid())
    assert not family.trusts(levels(15))
    assert family.trusts(levels(5))
    rows = perturbation.build_table(params, levels(15))
    assert {row.fit_n_fock for row in rows} == {64}


def test_a_level_beyond_m_is_not_trusted():
    family = spectral.track_branches(ModelParams(1.0, 1.05, 0.2, 16), grid())
    assert not family.trusts([BasisIndex(16, 1)])
    assert family.trusts([])


def test_a_refused_continuation_moves_on_to_the_next_m(monkeypatch):
    real = perturbation.track_branches
    tracked = []

    def track(params, g):
        tracked.append(params.n_fock)
        if params.n_fock == 16:
            raise spectral.GridRefinementError("refused")
        return real(params, g)

    monkeypatch.setattr(perturbation, "track_branches", track)
    rows = perturbation.build_table(ModelParams(1.0, 1.05, 0.2, 128), levels(2))
    assert tracked == [16, 32]
    assert {row.fit_n_fock for row in rows} == {32}


def test_below_the_first_working_size_the_table_is_fitted_on_n_fock(tmp_path):
    """At n_fock 48 (4 * 16 > 48) the fit runs on n_fock as it always did:
    the CSV keeps its columns, and the JSON is that fit's plus the new key."""
    assert list(spectral.galerkin_sizes(48)) == []
    text, csv_text = run_perturb(tmp_path, 48)
    params = ModelParams(1.0, 1.05, 0.2, 48)
    family = spectral.track_branches(params, grid())
    rows = json.loads(text)
    assert [row["fit_n_fock"] for row in rows] == [48] * 12
    for row in rows:
        fit = perturbation.e_series_fit(family, BasisIndex(row["level_n"], row["level_s"]))
        assert [row[f"e{k}_fit"] for k in range(5)] == fit.coefficients[:5].tolist()
    without = [{k: v for k, v in row.items() if k != "fit_n_fock"} for row in rows]
    assert text.replace(', "fit_n_fock": 48', "") == dump_json(without)
    header = csv_text.splitlines()[0].split(",")
    assert header == [k for k in without[0] if k != "fit_window"]


def test_every_row_names_its_truncation(tmp_path):
    text, csv_text = run_perturb(tmp_path, 64, max_n=2)
    rows = json.loads(text)
    assert len(rows) == 6
    assert all(list(row)[-2:] == ["fit_window", "fit_n_fock"] for row in rows)
    assert [row["fit_n_fock"] for row in rows] == [16] * 6
    assert "fit_n_fock" not in csv_text
