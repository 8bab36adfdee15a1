"""A coupling key whose top ladder entry at 2 * n_fock exceeds the largest
float, and a count key above its upper bound, exit 2 naming the key before
any work. Finite but huge couplings still run and fail their certificate."""

import json
import os
import warnings

import pytest

from spinboson.cli import EXIT_CERTIFICATION, EXIT_INPUT, MAXIMUM, check_config, main

TRANSFER = {"source": {"n": 0, "s": -1}, "target": {"n": 1, "s": -1}, "delta": 0.02}


def run(tmp_path, command, sections, n_fock=4, **model):
    path = tmp_path / "config.json"
    config = {
        "model": {"omega": 1.0, "Omega": 1.05, "g": 0.2, "n_fock": n_fock, **model},
        **sections,
    }
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        return main([command, "--config", str(path), "--output-dir", str(tmp_path / "out")])


SAMPLED = {"n_samples": 2}
OVERFLOWING = [
    ("resonance", {"resonance": {"g_samples": [0.1, 1e308]}}, {}, "resonance.g_samples"),
    ("resonance", {"resonance": {"g_min": -1e308, "g_max": 0, **SAMPLED}}, {}, "resonance.g_min"),
    ("resonance", {"resonance": {"g_min": 0, "g_max": 1e308, **SAMPLED}}, {}, "resonance.g_max"),
    ("branches", {"grid": {"g_min": -1e308, "g_max": 0, "n_points": 2}}, {}, "grid.g_min"),
    ("branches", {"grid": {"g_min": 0, "g_max": 1e308, "n_points": 2}}, {}, "grid.g_max"),
    ("perturb", {"perturb": {"window": 1e308}}, {"n_fock": 8, "Omega": 1.5}, "perturb.window"),
    ("transfer", {"transfer": {**TRANSFER, "delta": 1e308}}, {"n_fock": 8}, "transfer.delta"),
]


@pytest.mark.parametrize(
    "command, sections, model, key", OVERFLOWING, ids=[case[3] for case in OVERFLOWING]
)
def test_overflowing_coupling_names_its_key(tmp_path, capsys, command, sections, model, key):
    assert run(tmp_path, command, sections, **model) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "largest float" in err
    assert os.listdir(tmp_path) == ["config.json"]


def test_the_check_is_at_twice_n_fock(tmp_path, capsys):
    # 1.6e308 sqrt(3/2) overflows at 2 * n_fock = 4; 1.6e308 sqrt(1/2) at 2 would not
    sections = {"resonance": {"g_samples": [1.6e308]}}
    assert run(tmp_path, "resonance", sections, n_fock=2) == EXIT_INPUT
    assert "n_fock = 4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, sections, model",
    [
        ("resonance", {"resonance": {"g_samples": [1e307]}}, {}),
        ("branches", {"grid": {"g_min": -1e307, "g_max": 0, "n_points": 2}}, {}),
        ("perturb", {"perturb": {"window": 1e307}}, {"n_fock": 8, "Omega": 1.5}),
    ],
    ids=["g_samples", "grid", "perturb"],
)
def test_finite_huge_coupling_is_a_certification_failure(
    tmp_path, capsys, command, sections, model
):
    assert run(tmp_path, command, sections, **model) == EXIT_CERTIFICATION
    assert "certification failure" in capsys.readouterr().err


COUNTS = [("branches", "grid", "n_points"), ("resonance", "resonance", "n_samples")]


@pytest.mark.parametrize("command, section, name", COUNTS)
def test_count_above_its_bound_is_refused(tmp_path, capsys, command, section, name):
    # 10**13 points would allocate tens of TiB
    assert run(tmp_path, command, {section: {name: 10**13}}) == EXIT_INPUT
    assert f"'{section}.{name}'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("command, section, name", COUNTS)
def test_count_at_its_bound_is_accepted(command, section, name):
    key = f"{section}.{name}"
    assert MAXIMUM[key] == 1000
    config = {"model": {"omega": 1.0, "Omega": 1.05, "g": 0.2, "n_fock": 4}}
    # the check alone: a run of 1000 samples takes seconds
    assert check_config({**config, section: {name: 1000}}, command, {})[key] == 1000
    refused = {**config, section: {name: 1001}}
    with pytest.raises(ValueError, match=key):
        check_config(refused, command, {})
