"""`perturb`'s fit grid holds g = 0 exactly, whatever its window and odd size."""

import json

import numpy as np
import pytest

from spinboson import ModelParams, perturbation
from spinboson.cli import EXIT_OK, main


class GridSeen(Exception):
    pass


def grid_of(window: float, n_points: int, monkeypatch) -> np.ndarray:
    """The g-grid `build_table` hands to the tracker."""

    def capture(params, grid):
        raise GridSeen(grid)

    monkeypatch.setattr(perturbation, "track_branches", capture)
    with pytest.raises(GridSeen) as seen:
        perturbation.build_table(ModelParams(1.0, 1.1, 0.0, 8), window=window, n_points=n_points)
    return seen.value.args[0]


@pytest.mark.parametrize(
    "window, n_points",
    [(0.01, 147), (0.01, 293), (0.01, 299), (0.01, 315), (0.007, 13), (0.007, 19), (0.007, 25)],
)
def test_odd_grids_hold_zero_exactly(monkeypatch, window, n_points):
    assert 0.0 not in np.linspace(-window, window, n_points)  # the grid this replaced
    grid = grid_of(window, n_points, monkeypatch)
    assert len(grid) == n_points
    assert grid[n_points // 2] == 0.0
    assert np.all(np.diff(grid) > 0)
    assert np.array_equal(grid, -grid[::-1])
    assert grid[0] == pytest.approx(-window, rel=1e-15)


@pytest.mark.parametrize("n_points", [0, 1, 2, 20])
def test_even_or_tiny_grids_are_refused(n_points):
    with pytest.raises(ValueError, match=f"n_points = {n_points}"):
        perturbation.build_table(ModelParams(1.0, 1.1, 0.0, 8), window=0.01, n_points=n_points)


def test_perturb_runs_where_linspace_missed_zero(tmp_path):
    out = tmp_path / "out"
    model = {"omega": 1.0, "Omega": 1.1, "g": 0.0, "n_fock": 16}
    cfg = {"model": model, "output_dir": str(out)}
    cfg["perturb"] = {"window": 0.05, "n_points": 23, "max_n": 1}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["perturb", "--config", str(path)]) == EXIT_OK
    rows = json.loads((out / "perturb.json").read_text())
    assert [(r["level_n"], r["level_s"]) for r in rows] == [(0, 1), (0, -1), (1, 1), (1, -1)]
    spot = next(r for r in rows if (r["level_n"], r["level_s"]) == (0, 1))
    assert spot["e2_fit"] == pytest.approx(spot["e2"], rel=1e-2)
