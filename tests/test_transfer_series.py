"""A transfer's time series has one form: the sweep keeps the segment end
times and the tracked populations as arrays (`TransferReport.times` and
`.probabilities`), and the report renders its `Pulse` and its population rows
from them only when they are read. Its total time is the last end time, so a
transfer checked on a working truncation builds no pulse, not even for the
report it writes, and both files agree with the arrays float for float."""

import csv
import json

import numpy as np
import pytest

from spinboson import BasisIndex, ModelParams, transfer_experiment
from spinboson import control
from spinboson.cli import EXIT_OK, main

SOURCE = {"n": 0, "s": -1}


def run_transfer(tmp_path, n_fock, target, **keys):
    """`spinboson transfer` at omega = 1, Omega = 1.05, g = 0.2 from (0, -1),
    delta 0.02; returns its exit code and output directory."""
    out = tmp_path / "out"
    spec = {"source": SOURCE, "target": target, "delta": 0.02, **keys}
    config = {
        "model": {"omega": 1.0, "Omega": 1.05, "g": 0.2, "n_fock": n_fock},
        "output_dir": str(out),
        "transfer": spec,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return main(["transfer", "--config", str(path)]), out


def test_a_checked_transfer_builds_no_pulse(tmp_path, monkeypatch):
    # n_fock 64 searches on M = 16 and checks on 32; the report that is
    # written reads its total time off `times`, so no run validates a pulse
    built = []
    post_init = control.Pulse.__post_init__

    def counting(self):
        built.append(len(self.segments))
        post_init(self)

    monkeypatch.setattr(control.Pulse, "__post_init__", counting)
    rc, out = run_transfer(tmp_path, 64, {"n": 0, "s": 1})
    assert rc == EXIT_OK
    written = json.loads((out / "transfer.json").read_text())
    assert written["galerkin"]["n_fock"] == 16
    assert built == []
    assert written["total_time"] == written["populations"][-1]["t"]


# a transfer on a working truncation, a two-edge transfer and one of no segment
CASES = [
    (64, {"n": 0, "s": 1}, {}),
    (16, {"n": 1, "s": 1}, {"window": 6}),
    (16, SOURCE, {}),
]


@pytest.mark.parametrize("n_fock, target, keys", CASES, ids=["working", "two-edge", "empty"])
def test_files_and_arrays_agree(tmp_path, n_fock, target, keys):
    rc, out = run_transfer(tmp_path, n_fock, target, **keys)
    assert rc == EXIT_OK
    report = transfer_experiment(
        ModelParams(1.0, 1.05, 0.2, n_fock),
        BasisIndex(**SOURCE),
        BasisIndex(**target),
        0.02,
        **keys,
    )
    width = len(report.tracked_levels)
    n = sum(e["n_segments"] for e in report.edges)
    assert report.times.shape == (n,) and report.probabilities.shape == (n, width)
    if target == {"n": 1, "s": 1}:
        assert len(report.edges) == 2
    if target == SOURCE:
        assert n == 0

    with open(out / "populations.csv", newline="") as f:
        header, *cells = list(csv.reader(f))
    assert header == ["t"] + [f"p{k}" for k in report.tracked_levels]
    table = np.array(cells, dtype=float).reshape(-1, 1 + width)
    rows = json.loads((out / "transfer.json").read_text())["populations"]
    assert rows == report.populations
    assert [r["t"] for r in rows] == table[:, 0].tolist() == report.times.tolist()
    assert (
        [r["p"] for r in rows]
        == table[:, 1:].tolist()
        == report.probabilities.tolist()
    )


def test_rendered_views_are_cached_and_match_the_arrays():
    report = transfer_experiment(
        ModelParams(1.0, 1.05, 0.2, 16), BasisIndex(0, -1), BasisIndex(1, 1), 0.02, window=6
    )
    assert report.pulse is report.pulse and report.populations is report.populations
    # each edge's half-periods, on delta and 0 in turn from delta
    segments = [
        (edge["half_period"], 0.02 if k % 2 == 0 else 0.0)
        for edge in report.edges
        for k in range(edge["n_segments"])
    ]
    assert report.pulse == control.Pulse(segments, 0.02)
    assert report.total_time == report.pulse.total_duration
    assert report.populations == [
        {"t": t, "p": p} for t, p in zip(report.times.tolist(), report.probabilities.tolist())
    ]
