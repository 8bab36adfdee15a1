"""Rank labels: `labelled_spectrum` at g != 0 takes one solve per parity chain
and labels each chain's r-th eigenpair by its r-th bare level, unless a chain
is near-tied, where the continuation from g = 0 keeps the labels."""

import csv
import json

import numpy as np
import pytest

from spinboson import spectral
from spinboson.cli import EXIT_OK, main
from spinboson.fockmodel import ModelParams, basis_order, near_tied, rabi_bands


@pytest.fixture
def calls(monkeypatch):
    """Counts of `_solve_chain` and `track_branches` calls."""
    counts = {"_solve_chain": 0, "track_branches": 0}
    for name in counts:
        original = getattr(spectral, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(spectral, name, counted)
    return counts


def test_rank_path_makes_one_solve_per_chain(calls):
    spectral.labelled_spectrum(ModelParams(1.0, 1.05, 0.2, 32))
    assert calls == {"_solve_chain": 2, "track_branches": 0}


@pytest.mark.parametrize("Omega", [1.0, 2.999, 3.001, 4.0])
def test_near_tie_keeps_the_continuation(calls, Omega):
    spectral.labelled_spectrum(ModelParams(1.0, Omega, 0.2, 32))
    assert calls["track_branches"] == 1
    assert calls["_solve_chain"] > 2


def chains_near_tied(params: ModelParams) -> bool:
    energies, _ = rabi_bands(params)
    return any(near_tied(energies[rows], params.omega) for rows in spectral._chains(params.n_fock))


@pytest.mark.parametrize(
    "Omega, n_fock, expected",
    [
        (1.0, 8, True),  # (j,+1) and (j+1,-1) tied
        (1.0 + 1e-13, 8, True),  # tied within TIE_TOL
        (1.0 + 1e-6, 8, False),
        (1.05, 256, False),
        (1.99, 64, False),
        (2.0, 4, True),  # (0,+1) and (3,-1) exactly omega apart
        (2.0, 3, False),  # no two levels of a chain three steps apart
        (3.0, 8, True),
        (4.999, 8, True),
        (4.999, 5, False),  # the close pair (0,+1), (5,-1) is cut off
        (0.2, 64, False),
    ],
)
def test_near_tie_rule(Omega, n_fock, expected):
    assert chains_near_tied(ModelParams(1.0, Omega, 0.3, n_fock)) is expected


@pytest.mark.parametrize("Omega", [1.0 - 1e-6, 1.0 + 1e-6])
def test_near_omega_spectrum_exits_0(tmp_path, Omega):
    # the continuation from g = 0 refused these (overlap 0.707 below the floor)
    model = {"omega": 1.0, "Omega": Omega, "g": 0.2, "n_fock": 32}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": model, "output_dir": str(tmp_path / "out")}))
    assert main(["spectrum", "--config", str(path)]) == EXIT_OK
    with open(tmp_path / "out" / "spectrum.csv") as f:
        rows = list(csv.DictReader(f))
    labels = [(int(r["label_n"]), int(r["label_s"])) for r in rows]
    assert sorted(labels) == sorted((lab.n, lab.s) for lab in basis_order(32))

    params = ModelParams(1.0, Omega, 0.2, 32)
    spec = spectral.labelled_spectrum(params)
    assert [float(r["eigenvalue"]) for r in rows] == spec.eigenvalues.tolist()
    chain_of = np.empty(params.dim, dtype=int)
    for c, rows_c in enumerate(spectral._chains(params.n_fock)):
        chain_of[rows_c] = c
    for k, lab in spec.labels.items():
        support = np.flatnonzero(spec.eigenvectors[:, k])
        assert np.all(chain_of[support] == chain_of[lab.k])
