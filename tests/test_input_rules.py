"""Inputs that would yield an empty or meaningless certificate exit 2 naming
their key; the library's default transfer window is the CLI's."""

import json
import os

import pytest

from spinboson import ModelParams, transfer_experiment
from spinboson.cli import EXIT_INPUT, EXIT_OK, main
from spinboson.spectral import labelled_spectrum

MODEL = {"omega": 1.0, "Omega": 1.05, "g": 0.2, "n_fock": 8}
RESONANT = {"omega": 1.0, "Omega": 1.0, "g": 0.0, "n_fock": 8}
TRANSFER = {"source": {"n": 0, "s": -1}, "target": {"n": 1, "s": -1}, "delta": 0.02}

# (command, model, section, values, key): refused before any work
REFUSED = [
    ("convergence", MODEL, "convergence", {"sizes": [16, 8]}, "convergence.sizes"),
    ("convergence", MODEL, "convergence", {"sizes": [8, 8]}, "convergence.sizes"),
    ("convergence", MODEL, "convergence", {"sizes": [0, 8]}, "convergence.sizes"),
    ("convergence", MODEL, "convergence", {"sizes": [1, 8]}, "convergence.sizes"),
    ("perturb", MODEL, "perturb", {"window": 0}, "perturb.window"),
    ("perturb", MODEL, "perturb", {"window": -0.01}, "perturb.window"),
    ("degenerate", RESONANT, "degenerate", {"window": 0}, "degenerate.window"),
    ("degenerate", RESONANT, "degenerate", {"window": -3}, "degenerate.window"),
    ("degenerate", RESONANT, "degenerate", {"window": 1}, "degenerate.window"),
    ("degenerate", RESONANT, "degenerate", {"j_max": -2}, "degenerate.j_max"),
    ("degenerate", RESONANT, "degenerate", {"j_max": -1}, "degenerate.j_max"),
    ("transfer", MODEL, "transfer", {**TRANSFER, "threshold": -1}, "transfer.threshold"),
    ("transfer", MODEL, "transfer", {**TRANSFER, "threshold": 0}, "transfer.threshold"),
]


def run(tmp_path, command: str, model: dict, section: str, values: dict) -> int:
    cfg = {"model": dict(model), "transfer": dict(TRANSFER), "output_dir": "out"}
    cfg[section] = values
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path)])


@pytest.mark.parametrize("command, model, section, values, key", REFUSED)
def test_refused_naming_the_key(
    tmp_path, monkeypatch, capsys, command, model, section, values, key
):
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, command, model, section, values) == EXIT_INPUT
    assert f"'{key}'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


def test_smallest_degenerate_inputs_give_a_certificate(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    values = {"window": 2, "j_max": 0}
    assert run(tmp_path, "degenerate", RESONANT, "degenerate", values) == EXIT_OK
    report = json.loads((tmp_path / "out" / "degenerate.json").read_text())
    assert report["quadruple_check"]["n_quadruples"] > 0
    assert len(report["slopes"]) == 2


def test_smallest_convergence_sizes_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    values = {"sizes": [2, 8]}
    assert run(tmp_path, "convergence", MODEL, "convergence", values) == EXIT_OK


def test_small_positive_threshold_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    values = {**TRANSFER, "threshold": 1e-9, "max_periods": 50}
    assert run(tmp_path, "transfer", MODEL, "transfer", values) == EXIT_OK


def test_library_default_window_is_cut_to_trusted_levels(tmp_path, monkeypatch):
    # N//4 = 4 levels, but only 2 are trusted at g = 1.8 (none at g = 2)
    assert labelled_spectrum(ModelParams(1.0, 1.05, 2.0, 16)).trust_cutoff == 0
    p = ModelParams(1.0, 1.05, 1.8, 16)
    spectrum = labelled_spectrum(p)
    assert spectrum.trust_cutoff == 2
    source, target = spectrum.labels[0], spectrum.labels[1]
    report = transfer_experiment(p, source, target, 0.02)
    cut = transfer_experiment(p, source, target, 0.02, window=2)
    assert report.to_json() == cut.to_json()

    # the CLI, which passes its window, writes the same report
    monkeypatch.chdir(tmp_path)
    cfg = {
        "model": p.to_dict(),
        "transfer": {
            "source": {"n": source.n, "s": source.s},
            "target": {"n": target.n, "s": target.s},
            "delta": 0.02,
        },
        "output_dir": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    main(["transfer", "--config", str(tmp_path / "config.json")])
    assert (tmp_path / "out" / "transfer.json").read_text() == report.to_json()
