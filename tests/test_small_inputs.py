"""Inputs at the edge of their range: a subnormal coupling and a window below 1."""

import json

import pytest

from spinboson import (
    ModelParams,
    build_control,
    coupling_graph,
    labelled_spectrum,
    numeric_resonance_scan,
)
from spinboson.cli import EXIT_OK, main


def spectrum_csv(tmp_path, g):
    out = tmp_path / f"out{g!r}"
    model = {"omega": 1.0, "Omega": 1.5, "g": g, "n_fock": 8}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": model, "output_dir": str(out)}))
    assert main(["spectrum", "--config", str(path)]) == EXIT_OK
    return (out / "spectrum.csv").read_bytes()


@pytest.mark.parametrize("g", [5e-324, -5e-324, 1e-320])
def test_subnormal_coupling_gives_the_zero_coupling_spectrum(tmp_path, g):
    # linspace(0, g, 21) repeats values at +-5e-324; the grid drops the repeats
    assert spectrum_csv(tmp_path, g) == spectrum_csv(tmp_path, 0.0)


PARAMS = ModelParams(1.0, 1.05, 0.2, 8)


@pytest.mark.parametrize("window", [0, -3])
def test_scan_refuses_a_window_below_one(window):
    with pytest.raises(ValueError, match=f"window {window} must be >= 1"):
        numeric_resonance_scan(labelled_spectrum(PARAMS), window, 1e-9)


@pytest.mark.parametrize("window", [0, -3])
def test_graph_refuses_a_window_below_one(window):
    with pytest.raises(ValueError, match=f"window {window} must be >= 1"):
        coupling_graph(labelled_spectrum(PARAMS), build_control(PARAMS), window=window)
