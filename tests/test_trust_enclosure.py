"""The enclosure's contract at the command line: a window of one level is no
certificate for `chain` or `transfer`, trust counts do not depend on the unit
of energy, and only `convergence` runs the convergence scan."""

import json
import os

import pytest

from spinboson import ModelParams, spectral
from spinboson.cli import COMMANDS, EXIT_INPUT, EXIT_OK, main

TRANSFER = {"source": {"n": 0, "s": -1}, "target": {"n": 1, "s": -1}, "delta": 0.02}


def model(n_fock: int, g: float, omega: float = 1.0) -> dict:
    return {"omega": omega, "Omega": 1.05 * omega, "g": g * omega, "n_fock": n_fock}


def run(tmp_path, command: str, cfg: dict) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path)])


ONE_LEVEL = [
    pytest.param(
        "chain", {"model": model(16, 0.2), "resonance": {"window": 1}}, "resonance.window",
        id="chain-given",
    ),
    pytest.param(
        "transfer", {"model": model(16, 0.2), "transfer": {**TRANSFER, "window": 1}},
        "transfer.window", id="transfer-given",
    ),
    # the default window cut to the one trusted level
    pytest.param("chain", {"model": model(5, 0.2)}, "resonance.window", id="chain-default"),
    pytest.param(
        "transfer", {"model": model(16, 1.95), "transfer": TRANSFER}, "transfer.window",
        id="transfer-default",
    ),
]


@pytest.mark.parametrize("command, cfg, key", ONE_LEVEL)
def test_a_one_level_window_is_refused(tmp_path, monkeypatch, capsys, command, cfg, key):
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, command, cfg) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"'{key}'" in err and ">= 2" in err
    assert os.listdir(tmp_path) == ["config.json"]


def test_the_one_level_defaults_trust_one_level():
    assert spectral.trusted_levels(ModelParams(**model(5, 0.2))) == 1
    assert spectral.trusted_levels(ModelParams(**model(16, 1.95))) == 1


def test_resonance_keeps_a_one_level_window(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = {"model": model(16, 0.2), "resonance": {"window": 1, "g_samples": [0.2]}}
    assert run(tmp_path, "resonance", cfg) == EXIT_OK


@pytest.mark.parametrize(
    "n_fock, omega, count",
    [
        (32, 1e-13, 50),
        (8, 1e200, 6),
        (32, 2.0**-40, 50),
        (8, 2.0**20, 6),
        (32, 2.0**-1000, 50),
        (32, 2.0**1000, 50),
    ],
)
def test_counts_do_not_depend_on_the_unit_of_energy(n_fock, omega, count):
    # the absolute tol of the [N, 2N] scan trusted 64 levels at 1e-13 and 1
    # at 1e200; the enclosure trusts what it trusts at omega = 1
    assert spectral.trusted_levels(ModelParams(**model(n_fock, 0.2))) == count
    assert spectral.trusted_levels(ModelParams(**model(n_fock, 0.2, omega))) == count


def test_chain_at_a_huge_unit_certifies_two_levels(tmp_path, monkeypatch):
    # the scan cut the default window 2 to 1 here, and `chain` certified it
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, "chain", {"model": model(8, 0.2, 1e200)}) == EXIT_OK
    graph = json.loads((tmp_path / "chain.json").read_text())["graph"]
    assert len(graph["nodes"]) == 2


def test_a_tiny_unit_refuses_a_window_past_the_enclosure(tmp_path, monkeypatch, capsys):
    # the scan's absolute tol trusted all 64 levels at omega = 2^-40
    monkeypatch.chdir(tmp_path)
    s = 2.0**-40
    cfg = {"model": model(32, 0.2, s), "resonance": {"window": 60, "g_samples": [0.2 * s]}}
    assert run(tmp_path, "resonance", cfg) == EXIT_INPUT
    assert "within the 50 levels" in capsys.readouterr().err


CONFIGS = {
    "spectrum": {"model": model(16, 0.2)},
    "branches": {"model": model(8, 0.2)},
    "perturb": {"model": model(8, 0.2)},
    "resonance": {"model": model(16, 0.2), "resonance": {"g_samples": [0.2, 0.4]}},
    "chain": {"model": model(16, 0.2)},
    "transfer": {"model": model(64, 0.2), "transfer": TRANSFER},
    "convergence": {"model": model(8, 0.2), "convergence": {"sizes": [8, 16]}},
    "degenerate": {"model": {"omega": 1.0, "Omega": 1.0, "g": 0.0, "n_fock": 16}},
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_only_convergence_runs_the_scan(tmp_path, monkeypatch, command):
    calls = []
    real_scan = spectral.convergence_scan

    def counting_scan(params, sizes, *args, **kwargs):
        calls.append(list(sizes))
        return real_scan(params, sizes, *args, **kwargs)

    monkeypatch.setattr(spectral, "convergence_scan", counting_scan)
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, command, CONFIGS[command]) == EXIT_OK
    assert calls == ([[8, 16]] if command == "convergence" else [])
