"""The CLI config schema: wrong kinds are refused by key name, before any work."""

import json
import math
import os
import re
from pathlib import Path

import pytest

from spinboson.cli import (
    COMMANDS,
    EXIT_INPUT,
    EXIT_OK,
    REQUIRED,
    SCHEMA,
    SECTIONS,
    main,
)

ROOT = Path(__file__).resolve().parent.parent

MODEL = {"omega": 1.0, "Omega": 1.05, "g": 0.2, "n_fock": 8}
TRANSFER = {"source": {"n": 0, "s": -1}, "target": {"n": 1, "s": -1}, "delta": 0.02}

# values each kind refuses
WRONG = {
    "int": ["3", True, 2.5, 3.0, [1], {"n": 1}],
    "float": ["0.5", False, math.nan, math.inf, -math.inf, 2**1024, [1.0], {"x": 1.0}],
    "str": [5, 1.5, True, ["out"], {"dir": "out"}],
    "list[int]": ["32", 32, [16.5, 32], [True], ["32"], [None], {"a": 1}],
    "list[float]": ["0.1", 0.1, [math.nan], [0.1, "x"], [False], [None], {"a": 0.1}],
    "label": [
        "0",
        0,
        [0, 1],
        {"n": -1, "s": 1},
        {"n": 0, "s": 0},
        {"n": 0.5, "s": 1},
        {"n": True, "s": 1},
        {"n": 0, "s": True},
        {"n": 0},
        {"n": 0, "s": 1, "x": 0},
    ],
}

CASES = [(key, v) for key, (kind, _) in SCHEMA.items() for v in WRONG[kind]]
CASES += [(key, None) for key, (_, default) in SCHEMA.items() if default is REQUIRED]


def command_for(key: str) -> str:
    """The command that reads the key's section."""
    section = key.split(".")[0]
    if section == "grid":
        return "branches"
    return section if section in COMMANDS else "spectrum"


def config_with(key: str, value) -> dict:
    """A valid config for every command, with `key` set to `value`."""
    cfg = {"model": dict(MODEL), "transfer": dict(TRANSFER), "output_dir": "out"}
    section, _, name = key.rpartition(".")
    (cfg.setdefault(section, {}) if section else cfg)[name] = value
    return cfg


def run(tmp_path, command: str, cfg: dict) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path)])


@pytest.mark.parametrize("key, value", CASES, ids=[f"{k}={v!r}" for k, v in CASES])
def test_wrong_kind_refused_by_name(tmp_path, monkeypatch, capsys, key, value):
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, command_for(key), config_with(key, value)) == EXIT_INPUT
    assert f"'{key}'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("value", [5, "grid", [1], True])
@pytest.mark.parametrize("section", sorted(SECTIONS))
def test_section_must_be_object(tmp_path, monkeypatch, capsys, section, value):
    monkeypatch.chdir(tmp_path)
    cfg = config_with("seed", 0)
    cfg[section] = value
    assert run(tmp_path, command_for(section), cfg) == EXIT_INPUT
    assert f"'{section}'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize(
    "extra, named",
    [
        ({"model.g": 0.3}, "model.g"),  # a dotted top-level name is no section key
        ({"grid": {"g_min.x": 1}}, "grid.g_min.x"),
        ({"resonance": {"win": 12}}, "resonance.win"),
        ({"grdi": {}}, "grdi"),
    ],
)
def test_unknown_keys_refused(tmp_path, monkeypatch, capsys, extra, named):
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, "spectrum", {**config_with("seed", 0), **extra}) == EXIT_INPUT
    assert f"unknown key '{named}'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("command", ["resonance", "chain"])
def test_window_beyond_dimension_refused(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    cfg = config_with("resonance.window", 40)  # dimension 16 at n_fock = 8
    assert run(tmp_path, command, cfg) == EXIT_INPUT
    assert "'resonance.window'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize(
    "same, other",
    [
        ({"grid": None}, {}),
        ({"grid": {"n_points": None, "g_min": None}}, {}),
        ({"seed": None}, {"seed": 0}),
        ({"model": {**MODEL, "g": 0}}, {"model": {**MODEL, "g": 0.0}}),
        ({"grid": {"g_min": -1, "g_max": 1}}, {"grid": {"g_min": -1.0, "g_max": 1.0}}),
    ],
)
def test_null_is_absent_and_int_is_float(tmp_path, same, other):
    outputs = []
    for i, extra in enumerate((same, other)):
        out = tmp_path / str(i)
        cfg = {"model": {**MODEL, "n_fock": 4}, "output_dir": str(out), **extra}
        assert run(tmp_path, "branches", cfg) == EXIT_OK
        outputs.append((out / "branches.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_flags_are_checked_like_config_keys(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_with("seed", 0)))
    assert main(["spectrum", "--config", str(path), "--g", "nan"]) == EXIT_INPUT
    assert "'model.g'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


def test_readme_documents_every_key():
    text = (ROOT / "README.md").read_text()
    rows = re.findall(r"^\| (?:`(\w+)`|—) \| `(\w+)` \| ([\w\[\]]+) \|", text, re.M)
    documented = {(f"{s}.{k}" if s else k): kind for s, k, kind in rows}
    assert documented == {key: kind for key, (kind, _) in SCHEMA.items()}
