"""Per-chain branch storage and the unlabelled chain spectrum."""

import json

import numpy as np
import pytest

from spinboson import (
    ModelParams,
    build_interaction,
    build_rabi,
    hellmann_feynman_check,
    track_branches,
)
from spinboson.cli import EXIT_OK, main
from spinboson.spectral import stencil_slope


def dense_stencil_slopes(fam, g: float) -> list[float]:
    """The Hellmann-Feynman finite differences from dense eigensolves of H_Rabi."""
    h = 1e-3 * max(1.0, abs(g))
    stencil = {
        d: np.linalg.eigh(build_rabi(fam.params_base.with_g(g + d)).entries)
        for d in (-2 * h, -h, h, 2 * h)
    }
    vectors = fam.vectors_at(fam.grid_index(g))
    slopes = []
    for b in range(len(fam.labels)):
        vec = vectors[:, b]
        e_at = {d: w[int(np.argmax(np.abs(vec @ v)))] for d, (w, v) in stencil.items()}
        slopes.append(stencil_slope(e_at.get, h))
    return slopes


@pytest.mark.parametrize(
    "Omega, grid, g",
    [
        (1.1, np.linspace(-0.01, 0.01, 5), 0.0),
        (1.0, np.linspace(-0.01, 0.01, 5), 0.0),
        (1.1, np.linspace(0.0, 0.3, 7), 0.2),
    ],
)
def test_hellmann_feynman_matches_dense_stencil(Omega, grid, g):
    p = ModelParams(1.0, Omega, 0.0, 32)
    fam = track_branches(p, grid)
    rows = hellmann_feynman_check(fam, build_interaction(p), g)
    fd = np.array([row["fd_slope"] for row in rows])
    assert np.max(np.abs(fd - dense_stencil_slopes(fam, g))) <= 1e-9


def test_branch_vectors_stored_per_chain():
    n_fock = 64
    fam = track_branches(ModelParams(1.0, 1.05, 0.0, n_fock), np.linspace(-0.2, 0.2, 21))
    # one chain-solve column and one sign per branch and grid point; each is
    # N times smaller than half the dense (2N, 2N, n_grid) array of vectors
    assert fam.columns.shape == fam.signs.shape == (21, 2 * n_fock)
    vectors = fam.vectors_at(fam.grid_index(0.2))
    assert vectors.shape == (2 * n_fock, 2 * n_fock)
    assert np.max(np.abs(vectors.T @ vectors - np.eye(2 * n_fock))) < 1e-12


def test_resonance_near_tie_needs_no_continuation(tmp_path):
    # Omega just off omega: continuation from g = 0 refuses (the identity seed
    # is not the small-g limit), but the scan reads eigenvalues only
    cfg = {
        "model": {"omega": 1.0, "Omega": 0.999999, "g": 0.2, "n_fock": 32},
        "resonance": {"g_samples": [0.2], "window": 8},
        "output_dir": str(tmp_path),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["resonance", "--config", str(path)]) == EXIT_OK
    assert json.loads((tmp_path / "resonance.json").read_text())["all_clean"] is True


def test_hellmann_feynman_runs_no_trust_scan(monkeypatch):
    import spinboson.spectral as spectral

    p = ModelParams(1.0, 1.1, 0.0, 16)
    fam = track_branches(p, np.linspace(0.0, 0.3, 7))
    calls = []
    real_scan = spectral.convergence_scan

    def counting_scan(*args, **kwargs):
        calls.append(args)
        return real_scan(*args, **kwargs)

    monkeypatch.setattr(spectral, "convergence_scan", counting_scan)
    rows = hellmann_feynman_check(fam, build_interaction(p), 0.2)
    assert len(rows) == p.dim and all(row["ok"] for row in rows)
    assert calls == []
