"""Refusals of the library's entry points: each bad input raises its own
error, with its own message, before any work that depends on it."""

import numpy as np
import pytest

from spinboson import BasisIndex, ModelParams, control, spectral, transfer_experiment
from spinboson.control import (
    Pulse,
    SegmentPropagator,
    StateVector,
    TransferError,
    design_transfer,
    propagate,
)
from spinboson.fockmodel import build_control, build_rabi
from spinboson.resonance import certify_chain, coupling_graph

PARAMS = ModelParams(1.0, 1.05, 0.2, 8)


def test_transfer_with_zero_delta_is_refused():
    with pytest.raises(TransferError, match="delta must be positive"):
        transfer_experiment(PARAMS, BasisIndex(0, -1), BasisIndex(1, -1), 0.0)


def test_design_on_a_spectrum_without_params_is_refused():
    spec = spectral.diagonalize(build_rabi(PARAMS))
    assert spec.params is None
    graph = coupling_graph(spec, build_control(PARAMS), window=4)
    assert certify_chain(graph).connected
    with pytest.raises(TransferError, match="no model parameters"):
        design_transfer(spec, graph, BasisIndex(0, -1), BasisIndex(1, -1), 0.02)


def test_an_edge_from_a_level_to_itself_has_no_drive_gap():
    spec = spectral.labelled_spectrum(PARAMS)
    with pytest.raises(TransferError, match=r"vanishing drive gap on edge \(1,1\)"):
        control._sweep_path(spec, [1, 1], 0.02, 10, 0.95)


def test_a_level_outside_the_witness_has_no_path():
    spec = spectral.labelled_spectrum(PARAMS)
    graph = coupling_graph(spec, build_control(PARAMS), window=2)
    assert certify_chain(graph).connected
    with pytest.raises(TransferError, match="no path between levels 5 and 0"):
        control._witness_path(graph, 5, 0)


def test_an_amplitude_outside_zero_to_delta_is_refused():
    prop = SegmentPropagator(build_rabi(PARAMS), build_control(PARAMS), 0.02)
    psi = np.eye(PARAMS.dim)[0].astype(complex)
    for amplitude in (-0.01, 0.03):
        with pytest.raises(ValueError, match=f"amplitude {amplitude} outside"):
            prop.step(psi, 1.0, amplitude)


def test_propagating_a_state_of_another_dimension_is_refused():
    pulse = Pulse([(1.0, 0.02)], 0.02)
    psi = StateVector(np.eye(4)[0])
    with pytest.raises(ValueError, match="dimension mismatch: state is 4, H0 is 16"):
        propagate(build_rabi(PARAMS), build_control(PARAMS), pulse, psi)


def test_an_unknown_label_has_no_level():
    spec = spectral.labelled_spectrum(PARAMS)
    with pytest.raises(KeyError, match="no level labelled"):
        spec.level_of(BasisIndex(PARAMS.n_fock, 1))


def test_a_dense_solve_that_does_not_converge_keeps_its_cause(monkeypatch):
    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(spectral.SolverError, match="did not converge on H") as caught:
        spectral.dense_eigh(build_rabi(PARAMS).entries, "H")
    assert isinstance(caught.value.__cause__, np.linalg.LinAlgError)


def test_an_empty_g_grid_is_refused():
    with pytest.raises(ValueError, match="nonempty"):
        spectral.track_branches(PARAMS, [])


@pytest.mark.parametrize("sizes", [[8, 8], [16, 8]])
def test_convergence_sizes_must_increase(sizes):
    with pytest.raises(ValueError, match="strictly increasing"):
        spectral.convergence_scan(PARAMS, sizes)


def test_model_params_from_a_dict_with_an_unknown_key_is_refused():
    with pytest.raises(ValueError, match="unknown key 'h'"):
        ModelParams.from_dict({**PARAMS.to_dict(), "h": 1.0})


@pytest.mark.parametrize(
    "n, s, message", [(-1, 1, "photon number must be >= 0"), (0, 0, "spin label must be")]
)
def test_a_bad_basis_label_is_refused(n, s, message):
    with pytest.raises(ValueError, match=message):
        BasisIndex(n, s)
