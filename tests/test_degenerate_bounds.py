"""Bounds of the omega = Omega quadruple check: the CLI refuses a
`degenerate.window` above its maximum with exit 2 naming the key, before any
work, and the library refuses an omega whose branch energies are not finite."""

import json
import math
import os

import pytest

from spinboson import degenerate_quadruple_check
from spinboson.cli import EXIT_INPUT, MAXIMUM, check_config, main

CONFIG = {"model": {"omega": 1.0, "Omega": 1.0, "g": 0.0, "n_fock": 16}, "output_dir": "out"}
WINDOW_MAX = MAXIMUM["degenerate.window"]


def with_window(window: int) -> dict:
    return {**CONFIG, "degenerate": {"window": window}}


def test_window_at_bound_accepted():
    assert WINDOW_MAX == 1000
    assert check_config(with_window(WINDOW_MAX), "degenerate", {})["degenerate.window"] == 1000
    # and the check itself completes there
    assert degenerate_quadruple_check(WINDOW_MAX, 1.0)["n_violations"] == 0


def test_window_above_bound_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(with_window(WINDOW_MAX + 1)))
    assert main(["degenerate", "--config", str(path)]) == EXIT_INPUT
    assert "'degenerate.window'" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("omega", [math.nan, math.inf, 1e308])
def test_nonfinite_energies_refused(omega):
    # 1e308 is finite, but the top branch energy at window 12 is not
    with pytest.raises(ValueError, match="overflows"):
        degenerate_quadruple_check(12, omega)
