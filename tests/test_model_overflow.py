"""A model whose H_Rabi has an entry beyond the largest float is refused
before any work, naming its key: at 2 * n_fock, the largest truncation a
command other than `convergence` builds, and at the largest of
`convergence.sizes` for `convergence`. A finite but huge model runs: its
residual norms are formed on inputs scaled by a power of two, so they do not
overflow."""

import json
import os
import warnings

import pytest

from spinboson.cli import EXIT_INPUT, EXIT_OK, SCHEMA, main
from spinboson.spectral import TRUST_TOL

SECTIONS = {
    "transfer": {"source": {"n": 0, "s": -1}, "target": {"n": 1, "s": -1}, "delta": 0.02},
    "resonance": {"window": 2, "g_samples": [0.1]},
    "convergence": {"sizes": [4, 8]},
}
COMMANDS = ["spectrum", "chain", "resonance", "convergence", "transfer", "branches"]


def run(tmp_path, command, model, **sections):
    path = tmp_path / "config.json"
    config = {"model": {**model, "n_fock": 4}, **SECTIONS, **sections}
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return main([command, "--config", str(path), "--output-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize(
    "model, key",
    [
        ({"omega": 1e308, "Omega": 1.0, "g": 0.1}, "model.omega"),
        # omega (n + 1/2) alone fits at n = 7, the spin splitting does not
        ({"omega": 2e307, "Omega": 1.7e308, "g": 0.1}, "model.Omega"),
        ({"omega": 1.0, "Omega": 1.05, "g": 1e308}, "model.g"),
    ],
    ids=["omega", "Omega", "g"],
)
def test_overflowing_model_names_its_key(tmp_path, capsys, command, model, key):
    assert run(tmp_path, command, model) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "largest float" in err
    assert os.listdir(tmp_path) == ["config.json"]


def test_convergence_checks_its_largest_size(tmp_path, capsys):
    # omega (n + 1/2) fits at 2 * n_fock = 8, not at the largest size 32
    model = {"omega": 1e307, "Omega": 1.0, "g": 0.1}
    convergence = {"sizes": [4, 8, 32]}
    assert run(tmp_path, "convergence", model, convergence=convergence) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "'model.omega'" in err and "n_fock = 32" in err


def test_finite_huge_model_runs(tmp_path):
    model = {"omega": 1e307, "Omega": 1.0, "g": 0.1}
    assert run(tmp_path, "spectrum", model) == EXIT_OK
    assert os.listdir(tmp_path / "out") == ["spectrum.csv"]


def test_trust_tolerance_has_one_home():
    assert SCHEMA["convergence.tol"] == ("float", TRUST_TOL)
