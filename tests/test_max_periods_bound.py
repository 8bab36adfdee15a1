"""`transfer.max_periods` has an upper bound: above 10**6 the CLI exits 2
naming the key, before any work."""

import json
import os

from spinboson.cli import EXIT_INPUT, check_config, main

CONFIG = {
    "model": {"omega": 1.0, "Omega": 1.05, "g": 0.2, "n_fock": 8},
    "transfer": {"source": {"n": 0, "s": -1}, "target": {"n": 1, "s": -1}, "delta": 0.02},
    "output_dir": "out",
}


def with_periods(max_periods: int) -> dict:
    return {**CONFIG, "transfer": {**CONFIG["transfer"], "max_periods": max_periods}}


def test_max_periods_at_bound_accepted():
    # the check alone: a search of 10**6 periods takes seconds
    assert check_config(with_periods(10**6), "transfer", {})["transfer.max_periods"] == 10**6


def test_max_periods_above_bound_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(with_periods(10**6 + 1)))
    assert main(["transfer", "--config", str(path)]) == EXIT_INPUT
    assert "'transfer.max_periods'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]
