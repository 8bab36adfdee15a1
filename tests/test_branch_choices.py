"""Branches keep the continuation's choices; `vectors_at` re-solves them."""

import json

import numpy as np
import pytest

import spinboson.spectral as spectral
from spinboson import BasisIndex, ModelParams, track_branches
from spinboson.cli import EXIT_OK, main
from spinboson.fockmodel import rabi_bands

CASES = [
    # bisects and matches diabatically near Omega = 5 omega
    (4.999, 32, np.linspace(-0.5, 0.5, 11)),
    # tied seeds at Omega = omega
    (1.0, 32, np.linspace(-0.3, 0.3, 13)),
    # negative g only, with bisection
    (1.05, 16, np.linspace(-0.6, 0.0, 7)),
]


@pytest.mark.parametrize("Omega, n_fock, grid", CASES)
def test_vectors_at_holds_what_the_continuation_returned(monkeypatch, Omega, n_fock, grid):
    real = spectral._continue_chain
    nesting, steps, inner = [0], [], []

    def recording(d, c, g0, v0, rank0, g1, depth, solved):
        if nesting[0]:
            inner.append(g1)
        nesting[0] += 1
        try:
            out = real(d, c, g0, v0, rank0, g1, depth, solved)
        finally:
            nesting[0] -= 1
        if not nesting[0]:
            steps.append((d, g1, out[1], not np.array_equal(out[2], rank0)))
        return out

    monkeypatch.setattr(spectral, "_continue_chain", recording)
    p = ModelParams(1.0, Omega, 0.0, n_fock)
    fam = track_branches(p, grid)
    per_chain = len(grid) - 1
    assert len(steps) == 2 * per_chain
    if Omega != 1.0:
        assert inner, "the grid should bisect"
    if Omega == 4.999:
        assert any(matched for *_, matched in steps), "a step should match by overlap"

    diag, _ = rabi_bands(p)
    for c, rows in enumerate(spectral._chains(n_fock)):
        cols = rows[np.argsort(diag[rows], kind="stable")]
        for d, g1, v, _ in steps[c * per_chain : (c + 1) * per_chain]:
            assert np.array_equal(d, diag[rows])
            vectors = fam.vectors_at(fam.grid_index(g1))
            assert np.array_equal(vectors[np.ix_(rows, cols)], v)
            other = np.setdiff1d(np.arange(p.dim), rows)
            assert not np.any(vectors[np.ix_(other, cols)])


def test_vectors_at_re_solves_off_zero_only(monkeypatch):
    p = ModelParams(1.0, 1.05, 0.0, 16)
    fam = track_branches(p, np.linspace(-0.1, 0.1, 5))
    solved = []
    real = spectral._chain_eigenpairs

    def counting(params):
        solved.append(params.g)
        return real(params)

    monkeypatch.setattr(spectral, "_chain_eigenpairs", counting)
    at_zero = fam.vectors_at(fam.grid_index(0.0))
    assert solved == []
    assert np.array_equal(at_zero, spectral._seed_at_zero(p)[1])
    gi = fam.grid_index(0.05)
    fam.vectors_at(gi)
    assert solved == [fam.g_grid[gi]]


@pytest.mark.parametrize("omega, n_fock", [(1.0, 16), (0.7, 16), (2.5, 64)])
def test_degenerate_slopes_match_the_five_point_track(tmp_path, omega, n_fock):
    # the stencil of `hellmann_feynman_check` at g = 0 solves the same chains
    # at +-h and +-2h, h = 1e-3 * omega, that a continuation over those points
    # does
    cfg = {
        "model": {"omega": omega, "Omega": omega, "g": 0.0, "n_fock": n_fock},
        "degenerate": {"j_max": 5},
        "output_dir": str(tmp_path),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["degenerate", "--config", str(path)]) == EXIT_OK
    slopes = json.loads((tmp_path / "degenerate.json").read_text())["slopes"]
    assert len(slopes) == 12

    h = 1e-3 * omega
    fam = track_branches(
        ModelParams(omega, omega, 0.0, n_fock), np.array([-2 * h, -h, 0.0, h, 2 * h])
    )
    for row in slopes:
        lab = BasisIndex(row["label_n"], row["label_s"])
        numeric = spectral.stencil_slope(lambda d: fam.energy(lab, d), h)
        assert row["slope_numeric"] == float(numeric)
