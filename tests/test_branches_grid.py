"""`branches` mirrors a g range symmetric about 0 exactly, so both signs of each
|g| share one chain solve; any other range keeps linspace's grid."""

import json

import numpy as np
import pytest

from spinboson import spectral
from spinboson.cli import EXIT_INPUT, main


class GridSeen(Exception):
    pass


def grid_of(tmp_path, monkeypatch, grid: dict) -> np.ndarray:
    """The g-grid `branches` hands to the tracker."""

    def capture(params, g_grid):
        raise GridSeen(g_grid)

    monkeypatch.setattr(spectral, "track_branches", capture)
    model = {"omega": 1.0, "Omega": 1.05, "g": 0.0, "n_fock": 8}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": model, "grid": grid, "output_dir": str(tmp_path)}))
    with pytest.raises(GridSeen) as seen:
        main(["branches", "--config", str(path)])
    return seen.value.args[0]


@pytest.mark.parametrize(
    "top, n_points",
    # the default range, where linspace negates 4 of 10 points exactly; an even
    # count; two points; and ranges whose linspace misses 0 in the middle
    # (at -1.1e-16), where the grid used to hold that point and 0 besides
    [(0.05, 21), (0.05, 20), (0.3, 2), (0.5, 11), (1e-3, 21), (0.9, 11), (0.9, 21)],
)
def test_symmetric_range_is_mirrored_exactly(tmp_path, monkeypatch, top, n_points):
    grid = grid_of(tmp_path, monkeypatch, {"g_min": -top, "g_max": top, "n_points": n_points})
    assert np.array_equal(grid, -grid[::-1])
    assert np.all(np.diff(grid) > 0)
    assert 0.0 in grid
    # the upper half is linspace's own
    upper = np.linspace(-top, top, n_points)[(n_points + 1) // 2 :]
    assert np.array_equal(grid[len(grid) - len(upper) :], upper)
    assert len(grid) == 2 * len(upper) + 1


@pytest.mark.parametrize(
    "g_min, g_max, n_points",
    # the last is symmetric, but one point has no upper half to mirror
    [(-0.02, 0.05, 21), (-0.05, 0.02, 8), (0.0, 0.1, 5), (-0.1, 0.0, 6), (-0.05, 0.05, 1)],
)
def test_other_ranges_keep_linspace(tmp_path, monkeypatch, g_min, g_max, n_points):
    grid = grid_of(tmp_path, monkeypatch, {"g_min": g_min, "g_max": g_max, "n_points": n_points})
    points = np.linspace(g_min, g_max, n_points)
    assert np.array_equal(grid, points if 0.0 in points else np.sort(np.append(points, 0.0)))


@pytest.mark.parametrize("top", [0.0, -0.0])
def test_a_range_of_zero_width_is_still_refused(tmp_path, top):
    path = tmp_path / "config.json"
    cfg = {
        "model": {"omega": 1.0, "Omega": 1.05, "g": 0.0, "n_fock": 8},
        "grid": {"g_min": -top, "g_max": top},
        "output_dir": str(tmp_path),
    }
    path.write_text(json.dumps(cfg))
    assert main(["branches", "--config", str(path)]) == EXIT_INPUT
