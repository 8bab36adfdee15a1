"""Transfers searched on a working Galerkin truncation, and their margin.

`transfer_experiment` keeps the full-N spectrum, window, graph and witness
path, but searches each transfer on the smallest working truncation M (a
power of two >= 16 with 4 M <= n_fock) whose transfer at 2M keeps every
`n_segments` and moves no fidelity or population beyond GALERKIN_TOL. The
report keeps full-N level indices and carries the truncation margin: the
working n_fock, the drift (the M-to-2M change plus the search's rounding
bound) and the final weight outside trust.
"""

import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import event, given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson import (  # noqa: E402
    BasisIndex,
    ModelParams,
    Pulse,
    StateVector,
    TransferError,
    build_control,
    build_rabi,
    certify_chain,
    coupling_graph,
    propagate,
    transfer_experiment,
)
from spinboson import control  # noqa: E402
from spinboson.cli import EXIT_CERTIFICATION, EXIT_OK, main  # noqa: E402
from spinboson.control import labelled_spectrum  # noqa: E402
from spinboson.spectral import default_window  # noqa: E402
from test_transfer_iterates import TARGETS  # noqa: E402

SOURCE = BasisIndex(0, -1)


def direct(params, target, delta, max_periods, spec):
    """The transfer searched on params.n_fock itself, as before working
    truncations: `_sweep` on the full spectrum's certified graph."""
    window = min(default_window(params.n_fock), spec.trust_cutoff)
    graph = coupling_graph(spec, build_control(params), window=window)
    certify_chain(graph)
    return control._sweep(spec, graph, SOURCE, target, delta, max_periods, 0.95)


def populations(report):
    return np.array([row["p"] for row in report.populations]).reshape(
        -1, len(report.tracked_levels)
    )


def edge_rows(report, k):
    """The population rows of edge k: one per segment."""
    ends = np.cumsum([0] + [edge["n_segments"] for edge in report.edges])
    return slice(ends[k], ends[k + 1])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(33, 128),
    Omega=st.one_of(st.floats(0.3, 0.9), st.floats(1.1, 3.0)),
    g=st.one_of(st.floats(-0.5, -0.01), st.floats(0.01, 0.5)),
    delta=st.floats(0.005, 0.1),
    target=st.sampled_from(sorted(TARGETS)),
    max_periods=st.sampled_from([50, 300, 2000]),
)
def test_working_transfer_equals_the_direct_one(
    n_fock, Omega, g, delta, target, max_periods
):
    # equal designs and level indices; fidelities and populations within the
    # reported drift
    params = ModelParams(1.0, Omega, g, n_fock)
    spec = labelled_spectrum(params)
    try:
        report = transfer_experiment(
            params, SOURCE, TARGETS[target], delta, max_periods=max_periods, spectrum=spec
        )
    except TransferError as exc:
        # no trusted level, or no certified path to the target: no search ran
        if exc.stage in ("graph", "certify") or "no path" in str(exc):
            reject()
        raise
    reference = direct(params, TARGETS[target], delta, max_periods, spec)
    assert report.params == params
    assert report.tracked_levels == reference.tracked_levels
    assert [e["edge"] for e in report.edges] == [e["edge"] for e in reference.edges]
    assert [e["n_segments"] for e in report.edges] == [
        e["n_segments"] for e in reference.edges
    ]
    margin = json.loads(report.to_json())["galerkin"]
    assert margin["n_fock"] == report.working_n_fock
    event(f"searched on n_fock {report.working_n_fock}")
    if report.working_n_fock == n_fock:
        assert report.to_json() == reference.to_json()
        assert "drift" not in margin and report.drift == 0
        return
    assert report.working_n_fock < n_fock and margin["drift"] == report.drift
    assert report.drift <= control.GALERKIN_TOL
    assert report.drift >= max(e["drift"] for e in report.edges)
    assert abs(report.fidelity - reference.fidelity) <= report.drift
    rows = np.abs(populations(report) - populations(reference))
    for k, (mine, theirs) in enumerate(zip(report.edges, reference.edges)):
        assert abs(mine["fidelity"] - theirs["fidelity"]) <= mine["drift"]
        assert np.all(rows[edge_rows(report, k)] <= mine["drift"])


@pytest.mark.parametrize("n_fock", [5, 8, 16, 24, 32, 33, 48, 63])
def test_small_truncations_search_on_themselves(n_fock):
    params = ModelParams(1.0, 1.05, 0.2, n_fock)
    report = transfer_experiment(params, SOURCE, BasisIndex(1, -1), 0.02, window=2)
    assert report.working_n_fock == n_fock
    margin = json.loads(report.to_json())["galerkin"]
    assert margin["n_fock"] == n_fock and "drift" not in margin
    assert all("drift" not in edge for edge in report.edges)
    assert list(control._working_sizes(n_fock, [0, 1])) == []


def test_working_sizes_follow_the_cost_rule():
    # 4 M <= n_fock, M a power of two from 16
    assert list(control._working_sizes(63, [0, 1])) == []
    assert list(control._working_sizes(64, [0, 1])) == [16]
    assert list(control._working_sizes(127, [0, 1])) == [16]
    assert list(control._working_sizes(128, [0, 1])) == [16, 32]
    assert list(control._working_sizes(1024, [0, 1])) == [16, 32, 64, 128, 256]
    assert list(control._working_sizes(1024, [0])) == []


@pytest.mark.parametrize("n_fock", [64, 128])
@pytest.mark.parametrize("target", [BasisIndex(1, -1), BasisIndex(0, 1)], ids=str)
def test_benchmark_transfers_run_on_sixteen(n_fock, target):
    params = ModelParams(1.0, 1.05, 0.2, n_fock)
    report = transfer_experiment(params, SOURCE, target, 0.02)
    assert report.working_n_fock == 16
    # the change to 32 is within 1e-12; the rest is the search's rounding
    ends = np.cumsum([edge["n_segments"] for edge in report.edges])
    assert 0 < report.drift - control._rounding(ends[-1]) <= 1e-12
    assert report.outside_trust < 1e-20
    margin = json.loads(report.to_json())["galerkin"]
    assert margin == {
        "n_fock": 16,
        "outside_trust": report.outside_trust,
        "drift": report.drift,
    }
    for edge, end in zip(report.edges, ends):
        assert control._rounding(end) <= edge["drift"] <= report.drift


def test_uncertified_candidates_fall_back_to_n_fock(monkeypatch):
    params = ModelParams(1.0, 1.05, 0.2, 64)
    spec = labelled_spectrum(params)
    reference = direct(params, BasisIndex(1, -1), 0.02, 300, spec)

    def run():
        return transfer_experiment(
            params, SOURCE, BasisIndex(1, -1), 0.02, max_periods=300, spectrum=spec
        )

    assert run().working_n_fock == 16
    # no candidate agrees with its double to a zero tolerance
    monkeypatch.setattr(control, "GALERKIN_TOL", 0.0)
    assert run().to_json() == reference.to_json()
    monkeypatch.undo()

    # a search on a truncation below n_fock fails: the same sweep on n_fock
    sweep = control._sweep_path

    def failing(spectrum, *args):
        if spectrum.params.n_fock < params.n_fock:
            raise TransferError("design", "vanishing drive gap")
        return sweep(spectrum, *args)

    monkeypatch.setattr(control, "_sweep_path", failing)
    assert run().to_json() == reference.to_json()


def test_untrusted_path_levels_skip_the_truncation(monkeypatch):
    # at g = 2, n_fock 16 trusts levels 0 and 1 only, so a path through level
    # 2 or 3 is never searched on 16 (nor checked on 32); the path [0, 1] is,
    # and its check on 32 then moves it too far, so all three fall back to 64
    params = ModelParams(1.0, 1.05, 2.0, 64)
    spec = labelled_spectrum(params)
    assert labelled_spectrum(ModelParams(1.0, 1.05, 2.0, 16)).trust_cutoff == 2
    sweep, searched = control._sweep_path, []

    def recording(spectrum, *args):
        searched.append(spectrum.params.n_fock)
        return sweep(spectrum, *args)

    monkeypatch.setattr(control, "_sweep_path", recording)
    for target, sizes in [(1, [16, 32, 64]), (2, [64]), (3, [64])]:
        searched.clear()
        report = transfer_experiment(
            params, spec.labels[0], spec.labels[target], 0.02, max_periods=300, spectrum=spec
        )
        assert searched == sizes
        assert report.working_n_fock == 64


def test_leak_outside_trust_is_reported():
    # a strong drive on a small truncation: the design reports 0.829, while
    # 12% of the final state sits outside the 3 levels the scan trusts
    params = ModelParams(1.0, 1.05, 0.5, 8)
    target, delta = BasisIndex(1, -1), 0.3
    report = transfer_experiment(params, SOURCE, target, delta)
    spec = labelled_spectrum(params)
    assert spec.trust_cutoff == 3
    assert report.working_n_fock == 8
    assert report.fidelity == pytest.approx(0.829, abs=1e-3)
    assert report.outside_trust == pytest.approx(0.12, abs=5e-3)

    # the same weight from stepping the designed pulse
    pulse = Pulse(
        [
            (edge["half_period"], delta if k % 2 == 0 else 0.0)
            for edge in report.edges
            for k in range(edge["n_segments"])
        ],
        delta,
    )
    psi0 = StateVector(spec.eigenvectors[:, spec.level_of(SOURCE)].astype(complex))
    final = propagate(build_rabi(params), build_control(params), pulse, psi0)
    trusted = np.abs(spec.eigenvectors[:, : spec.trust_cutoff].T @ final.amplitudes) ** 2
    assert abs(report.outside_trust - (1 - trusted.sum())) <= 1e-9


def write(tmp_path, model, transfer):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": model, "transfer": transfer, "output_dir": "out"}))
    return str(path)


def test_pass_must_hold_beyond_its_drift(tmp_path, monkeypatch):
    # a threshold between fidelity - drift and fidelity fails the pass
    monkeypatch.chdir(tmp_path)
    params = ModelParams(1.0, 1.05, 0.2, 64)
    report = transfer_experiment(params, SOURCE, BasisIndex(1, -1), 0.02)
    assert report.working_n_fock == 16 and report.drift > 0
    spec = {"source": {"n": 0, "s": -1}, "target": {"n": 1, "s": -1}, "delta": 0.02}
    for threshold, code in [
        (report.fidelity - report.drift / 2, EXIT_CERTIFICATION),
        (report.fidelity - 2 * report.drift, EXIT_OK),
    ]:
        config = write(tmp_path, params.to_dict(), {**spec, "threshold": threshold})
        assert main(["transfer", "--config", config]) == code
        written = json.loads((tmp_path / "out" / "transfer.json").read_text())
        assert written["galerkin"] == json.loads(report.to_json())["galerkin"]
        assert written["fidelity"] == report.fidelity
