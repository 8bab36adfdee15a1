"""The transfer sweep returns its `TransferReport`, and the propagator owns
every H0 + u*B solve, the mean Hamiltonian's included."""

import json

import numpy as np
import pytest

from spinboson import (
    BasisIndex,
    ModelParams,
    TransferError,
    build_control,
    build_rabi,
    certify_chain,
    coupling_graph,
    design_transfer,
    labelled_spectrum,
    transfer_experiment,
)
from spinboson import control
from spinboson.control import DEFAULT_MAX_PERIODS, DEFAULT_THRESHOLD, TransferReport
from spinboson.spectral import GridRefinementError, SolverError

P = ModelParams(1.0, 1.05, 0.2, 16)
SOURCE = BasisIndex(0, -1)


def certified(params, window):
    spec = labelled_spectrum(params)
    graph = coupling_graph(spec, build_control(params), window=window)
    certify_chain(graph)
    return spec, graph


def recording_eigh(monkeypatch, matrices=None):
    """Route control's dense solves through a recorder; returns its call list.
    Each solved matrix is appended to `matrices` if given."""
    calls = []
    solve = control.dense_eigh

    def record(matrix, name):
        calls.append(name)
        if matrices is not None:
            matrices.append(matrix)
        return solve(matrix, name)

    monkeypatch.setattr("spinboson.control.dense_eigh", record)
    return calls


# a ladder edge, and a two-edge path through levels [0, 1, 4]
PATHS = [(BasisIndex(1, -1), 4), (BasisIndex(1, 1), 6)]


@pytest.mark.parametrize("target, window", PATHS)
def test_sweep_returns_the_report_design_transfer_reads(target, window):
    spec, graph = certified(P, window)
    report = control._sweep(
        spec, graph, SOURCE, target, 0.02, DEFAULT_MAX_PERIODS, DEFAULT_THRESHOLD
    )
    assert isinstance(report, TransferReport)
    assert report.total_time == report.pulse.total_duration > 0
    assert json.loads(report.to_json())["total_time"] == report.total_time
    pulse, fid, edges = design_transfer(spec, graph, SOURCE, target, 0.02)
    assert pulse == report.pulse and edges == report.edges
    assert fid == report.edges[-1]["fidelity"]


def test_every_solve_is_the_propagators(monkeypatch):
    # the mean Hamiltonian u = delta/2 and u = delta, one solve each; u = 0
    # takes H0's eigenpairs from the labelled spectrum's chain solves
    matrices = []
    calls = recording_eigh(monkeypatch, matrices)
    report = transfer_experiment(
        P, SOURCE, BasisIndex(1, 1), 0.02, window=6, max_periods=50
    )
    assert len(report.edges) == 2
    assert calls == ["H0 + u*B"] * 2
    h0, b = build_rabi(P).entries, build_control(P).entries
    assert [np.array_equal(m, h0 + u * b) for m, u in zip(matrices, (0.01, 0.02))] == [True] * 2


def test_identity_transfer_solves_nothing(monkeypatch):
    calls = recording_eigh(monkeypatch)
    report = transfer_experiment(P, SOURCE, SOURCE, 0.02)
    assert calls == []
    assert report.pulse.segments == [] and report.total_time == 0
    assert report.edges == [] and report.populations == []
    assert report.tracked_levels == [labelled_spectrum(P).level_of(SOURCE)]
    assert report.fidelity == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("error", [GridRefinementError, SolverError, ValueError])
def test_spectrum_failures_reach_the_caller_unwrapped(monkeypatch, error):
    def failing(params):
        raise error("spectrum failed")

    monkeypatch.setattr("spinboson.control.labelled_spectrum", failing)
    with pytest.raises(error, match="spectrum failed"):
        transfer_experiment(P, SOURCE, BasisIndex(1, -1), 0.02)


@pytest.mark.parametrize(
    "other", [P.with_g(0.3), ModelParams(1.0, 1.05, 0.2, 12)], ids=["g", "n_fock"]
)
def test_spectrum_of_other_params_is_refused(monkeypatch, other):
    # the transfer would run on the spectrum's model, or fail deep in the graph
    calls = recording_eigh(monkeypatch)
    with pytest.raises(ValueError) as err:
        transfer_experiment(
            P, SOURCE, BasisIndex(1, -1), 0.02, spectrum=labelled_spectrum(other)
        )
    message = str(err.value)
    assert message.startswith("spectrum ")
    assert str(other) in message and str(P) in message
    assert calls == []


def test_zero_default_window_is_a_graph_error():
    # no level is trusted here, so the default window is 0
    params = ModelParams(1.0, 1.33, 0.44, 4)
    assert labelled_spectrum(params).trust_cutoff == 0
    with pytest.raises(TransferError) as err:
        transfer_experiment(params, SOURCE, BasisIndex(1, -1), 0.02)
    assert err.value.stage == "graph"
    assert "window 0" in str(err.value) and "component" not in str(err.value)
