"""CLI refusals: windows beyond the levels the convergence scan trusts, an empty
output directory, a fit that stops short of E4 and a g range wider than the
largest float."""

import json
import os

import pytest

from spinboson import ModelParams, build_rabi, convergence_scan, diagonalize
from spinboson.cli import EXIT_INPUT, EXIT_OK, main
from spinboson.spectral import trusted_levels

TRANSFER = {"source": {"n": 0, "s": -1}, "target": {"n": 1, "s": -1}, "delta": 0.02}


def model(n_fock: int, g: float) -> dict:
    return {"omega": 1.0, "Omega": 1.05, "g": g, "n_fock": n_fock}


def run(tmp_path, command: str, cfg: dict) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path)])


@pytest.mark.parametrize(
    "n_fock, g, trust",
    [(16, 2.0, 2), (8, 0.2, 7), (3, 0.2, 0), (64, 0.2, 113)],
)
def test_trusted_levels_is_the_scan_at_n_and_2n(n_fock, g, trust):
    p = ModelParams(1.0, 1.05, g, n_fock)
    assert trusted_levels(p) == trust
    assert convergence_scan(p, [n_fock, 2 * n_fock]).trust_cutoff == trust


def test_bare_operator_trusts_every_level():
    op = build_rabi(ModelParams(1.0, 1.05, 2.0, 16))
    assert diagonalize(op).trust_cutoff == op.dim == 32


# (command, config, key): each window exceeds the levels trusted at its g, or is
# a default below 1; none is beyond the matrix dimension 2N
REFUSED = [
    pytest.param(
        "chain",
        {"model": model(16, 2.0), "resonance": {"window": 4}},
        "resonance.window",
        id="chain-g2",
    ),
    pytest.param(
        "resonance",
        {"model": model(16, 2.0), "resonance": {"window": 4, "g_samples": [2.0]}},
        "resonance.window",
        id="resonance-g2",
    ),
    pytest.param(
        "resonance",
        {"model": model(16, 0.0), "resonance": {"window": 4, "g_samples": [0.2, 2.0]}},
        "resonance.window",
        id="resonance-second-sample",
    ),
    pytest.param(
        "chain",
        {"model": model(8, 0.2), "resonance": {"window": 10}},
        "resonance.window",
        id="chain-n8",
    ),
    pytest.param(
        "transfer",
        {"model": model(8, 0.2), "transfer": {**TRANSFER, "window": 10}},
        "transfer.window",
        id="transfer-n8",
    ),
    pytest.param("chain", {"model": model(3, 0.2)}, "resonance.window", id="chain-n3-default"),
    pytest.param(
        "transfer",
        {"model": model(3, 0.2), "transfer": TRANSFER},
        "transfer.window",
        id="transfer-n3-default",
    ),
]


@pytest.mark.parametrize("command, cfg, key", REFUSED)
def test_window_beyond_trust_refused(tmp_path, monkeypatch, capsys, command, cfg, key):
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, command, cfg) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"'{key}'" in err and "convergence scan trusts" in err
    assert os.listdir(tmp_path) == ["config.json"]


def test_default_window_cut_to_trust(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # the default n_fock // 4 = 4 levels, of which the scan trusts 2
    assert run(tmp_path, "chain", {"model": model(16, 2.0)}) == EXIT_OK
    graph = json.loads((tmp_path / "chain.json").read_text())["graph"]
    assert len(graph["nodes"]) == 2


def test_empty_output_dir_variable_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SPINBOSON_OUTPUT_DIR", "")
    assert run(tmp_path, "spectrum", {"model": model(8, 0.2)}) == EXIT_INPUT
    assert "'output_dir'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


def test_output_dir_variable_used_without_key(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SPINBOSON_OUTPUT_DIR", "from_env")
    assert run(tmp_path, "spectrum", {"model": model(8, 0.2)}) == EXIT_OK
    assert os.listdir(tmp_path / "from_env") == ["spectrum.csv"]


def test_fit_degree_below_e4_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # the table reads the fitted E4, which a cubic does not have
    cfg = {"model": model(8, 0.2), "perturb": {"degree": 3}}
    assert run(tmp_path, "perturb", cfg) == EXIT_INPUT
    assert "'perturb.degree'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]
    cfg["perturb"]["degree"] = 4
    assert run(tmp_path, "perturb", cfg) == EXIT_OK


HUGE = {"g_min": -1e308, "g_max": 1e308}  # each finite, their difference is not


@pytest.mark.parametrize(
    "command, cfg, section",
    [
        ("resonance", {"model": model(8, 0.2), "seed": 7, "resonance": HUGE}, "resonance"),
        ("resonance", {"model": model(8, 0.2), "resonance": HUGE}, "resonance"),
        ("branches", {"model": model(8, 0.2), "grid": HUGE}, "grid"),
    ],
    ids=["resonance-seeded", "resonance-unseeded", "branches"],
)
def test_g_range_wider_than_a_float_refused(
    tmp_path, monkeypatch, capsys, command, cfg, section
):
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, command, cfg) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"'{section}.g_min'" in err and f"'{section}.g_max'" in err
    assert os.listdir(tmp_path) == ["config.json"]
