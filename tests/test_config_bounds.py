"""Range bounds of the CLI keys: a value short of its bound exits 2 naming the key."""

import json
import os
import re
from pathlib import Path

import pytest

from spinboson.cli import EXIT_INPUT, EXIT_OK, MINIMUM, main

ROOT = Path(__file__).resolve().parent.parent

MODEL = {"omega": 1.0, "Omega": 1.05, "g": 0.2, "n_fock": 8}
TRANSFER = {"source": {"n": 0, "s": -1}, "target": {"n": 1, "s": -1}, "delta": 0.02}

# (command, key, value): every value is refused by its key's bound alone
BELOW = [
    ("perturb", "perturb.max_n", -1),
    ("perturb", "perturb.degree", -1),
    ("convergence", "convergence.sizes", []),
    ("convergence", "convergence.sizes", [8]),
    ("convergence", "convergence.tol", -1.0),
    ("convergence", "convergence.tol", 0.0),
    ("resonance", "resonance.g_samples", []),
    ("resonance", "resonance.n_samples", 0),
    ("resonance", "resonance.window", -1),
    ("resonance", "resonance.window", 0),
    ("resonance", "resonance.tol", -1.0),
    ("resonance", "resonance.tol", 0.0),
    ("chain", "resonance.floor", 0.0),
    ("chain", "resonance.window", 0),
    ("chain", "resonance.tol", -1.0),
    ("chain", "resonance.tol", 0.0),
    ("branches", "grid.n_points", 0),
    ("transfer", "transfer.max_periods", 0),
    ("transfer", "transfer.window", 0),
    ("transfer", "transfer.delta", -0.02),
    ("transfer", "transfer.delta", 0.0),
    ("transfer", "transfer.threshold", -1.0),
    ("transfer", "transfer.threshold", 0.0),
    ("perturb", "perturb.window", -0.01),
    ("perturb", "perturb.window", 0.0),
    ("degenerate", "degenerate.window", 0),
    ("degenerate", "degenerate.window", 1),
    ("degenerate", "degenerate.j_max", -2),
    ("spectrum", "output_dir", ""),
]

# values at the bound, which are accepted
AT = [
    ("perturb", "perturb.max_n", 0),
    ("convergence", "convergence.sizes", [8, 16]),
    ("resonance", "resonance.n_samples", 1),
    ("resonance", "resonance.window", 1),
    ("branches", "grid.n_points", 1),
]


def run(tmp_path, command: str, key: str, value) -> int:
    cfg = {"model": dict(MODEL), "transfer": dict(TRANSFER), "output_dir": "out"}
    section, _, name = key.rpartition(".")
    (cfg.setdefault(section, {}) if section else cfg)[name] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path)])


def test_every_bound_is_exercised():
    assert {key for _, key, _ in BELOW} == set(MINIMUM)


@pytest.mark.parametrize("command, key, value", BELOW)
def test_below_bound_refused_by_name(tmp_path, monkeypatch, capsys, command, key, value):
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, command, key, value) == EXIT_INPUT
    assert f"'{key}'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("command, key, value", AT)
def test_at_bound_accepted(tmp_path, monkeypatch, command, key, value):
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, command, key, value) == EXIT_OK


# (command, config sections, key): values each fine alone, refused together
CROSS = [
    ("perturb", {"perturb": {"max_n": 8}}, "perturb.max_n"),
    ("branches", {"grid": {"g_min": 0.0, "g_max": 0.0}}, "grid.g_min"),
    ("branches", {"grid": {"g_min": 0.05, "g_max": -0.05}}, "grid.g_min"),
    ("resonance", {"seed": 3, "resonance": {"g_min": 0.5, "g_max": 0.05}}, "resonance.g_min"),
    ("perturb", {"perturb": {"n_points": 5}}, "perturb.n_points"),
    ("perturb", {"perturb": {"n_points": 20}}, "perturb.n_points"),
]

# their neighbours that run
CROSS_ACCEPTED = [
    ("perturb", {"perturb": {"max_n": 7}}),
    ("branches", {"grid": {"g_min": 0.0, "g_max": 0.0, "n_points": 1}}),
    ("branches", {"grid": {"g_min": 0.1, "g_max": 0.05, "n_points": 3}}),
    ("resonance", {"resonance": {"g_min": 0.5, "g_max": 0.05, "n_samples": 2}}),
    ("perturb", {"perturb": {"degree": 8, "n_points": 11}}),
    ("perturb", {"perturb": {"degree": 5, "n_points": 9}}),
]


def run_sections(tmp_path, command: str, sections: dict) -> int:
    cfg = {"model": dict(MODEL), "transfer": dict(TRANSFER), "output_dir": "out"}
    cfg.update(sections)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path)])


@pytest.mark.parametrize("command, sections, key", CROSS)
def test_cross_key_error_names_the_key(tmp_path, monkeypatch, capsys, command, sections, key):
    monkeypatch.chdir(tmp_path)
    assert run_sections(tmp_path, command, sections) == EXIT_INPUT
    assert f"'{key}'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("command, sections", CROSS_ACCEPTED)
def test_cross_key_neighbours_run(tmp_path, monkeypatch, command, sections):
    monkeypatch.chdir(tmp_path)
    assert run_sections(tmp_path, command, sections) == EXIT_OK


def test_transfer_window_beyond_dimension_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # dimension 16 at n_fock = 8
    assert run(tmp_path, "transfer", "transfer.window", 40) == EXIT_INPUT
    assert "'transfer.window'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


def test_readme_documents_every_bound():
    text = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| (?:`(\w+)`|—) \| `(\w+)` \| [\w\[\]]+ \| ([^|]*) \|", text, re.M)
    documented = {(f"{s}.{k}" if s else k): cell.strip() for s, k, cell in rows}
    assert {key for key, cell in documented.items() if cell} == set(MINIMUM)
    for key, low in MINIMUM.items():
        assert documented[key] == "non-empty" or f"{low:g}" in documented[key]
