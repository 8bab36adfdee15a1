"""Each transfer and seed value is derived once: a pulse's duration is the
left-to-right sum that a transfer's end times run, the replay goes on with
the drive its search formed, the g = 0 seed finds its ties with one `tied`,
and the CSV writers get their cells in their own types."""

import json

import numpy as np
import pytest

from spinboson import BasisIndex, ModelParams, cli, control, spectral, transfer_experiment
from spinboson.control import Pulse, SegmentPropagator
from spinboson.fockmodel import degenerate_basis, tied

PARAMS = ModelParams(1.0, 1.05, 0.2, 16)


def test_pulse_duration_adds_left_to_right():
    # a compensated sum (Python >= 3.12's `sum`, `math.fsum`) gives 1 + 2^-52
    pulse = Pulse([(1.0, 0.0), (2.0**-53, 0.0), (2.0**-53, 0.0)], 0.0)
    assert pulse.total_duration == 1.0
    assert Pulse([], 0.0).total_duration == 0


def test_replay_goes_on_with_the_drive_of_its_search(monkeypatch):
    decomposition, replay = SegmentPropagator._decomposition, SegmentPropagator._replay
    replaying, solved_in_replay = [], []

    def counting(self, amplitude):
        solved_in_replay.append(bool(replaying))
        return decomposition(self, amplitude)

    def recording(self, *args):
        replaying.append(True)
        try:
            return replay(self, *args)
        finally:
            replaying.pop()

    monkeypatch.setattr(SegmentPropagator, "_decomposition", counting)
    monkeypatch.setattr(SegmentPropagator, "_replay", recording)
    report = transfer_experiment(PARAMS, BasisIndex(0, -1), BasisIndex(1, 1), 0.02, window=6)
    assert all(e["n_segments"] for e in report.edges)
    assert solved_in_replay and not any(solved_in_replay)


@pytest.mark.parametrize("Omega", [1.0, 1.05, 3.0])
def test_the_seed_finds_its_ties_with_one_tied(monkeypatch, Omega):
    params = ModelParams(1.0, Omega, 0.0, 16)
    calls = []

    def counting(a, b):
        calls.append(np.shape(a))
        return tied(a, b)

    monkeypatch.setattr(spectral, "tied", counting)
    _, vecs, energies = spectral._seed_at_zero(params)
    assert calls == [(params.n_fock - 1,)]
    expected = np.eye(params.dim)
    for j in range(params.n_fock - 1):
        up, dn = BasisIndex(j, 1).k, BasisIndex(j + 1, -1).k
        if tied(energies[up], energies[dn]):
            expected[:, up], expected[:, dn] = degenerate_basis(j, params.n_fock)
    assert np.array_equal(vecs, expected)
    assert np.array_equal(vecs, np.eye(params.dim)) == (Omega != 1.0)


def capture(monkeypatch, module):
    rows = []
    write_csv = module.write_csv

    def recording(path, header, cells):
        cells = list(cells)
        rows.extend(cells)
        write_csv(path, header, cells)

    monkeypatch.setattr(module, "write_csv", recording)
    return rows


def test_spectrum_rows_hold_label_ints(tmp_path, monkeypatch):
    rows = capture(monkeypatch, cli)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": PARAMS.to_dict(), "output_dir": str(tmp_path)}))
    assert cli.main(["spectrum", "--config", str(config)]) == cli.EXIT_OK
    assert len(rows) == PARAMS.dim
    assert all(type(n) is int and type(s) is int for _, n, s, _ in rows)


def test_population_rows_are_lists_of_floats(tmp_path, monkeypatch):
    rows = capture(monkeypatch, control)
    report = transfer_experiment(PARAMS, BasisIndex(0, -1), BasisIndex(0, 1), 0.02)
    report.populations_to_csv(tmp_path / "populations.csv")
    assert len(rows) == len(report.times) > 0
    assert all(type(row) is list and type(row[0]) is float for row in rows)
