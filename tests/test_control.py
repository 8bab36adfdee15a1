import json
import math

import numpy as np
import pytest

from spinboson import (
    BasisIndex,
    ModelParams,
    Pulse,
    StateVector,
    TransferError,
    build_control,
    build_rabi,
    certify_chain,
    coupling_graph,
    design_transfer,
    diagonalize,
    propagate,
    transfer_experiment,
)
from spinboson.control import labelled_spectrum

P = ModelParams(1.0, 1.05, 0.2, 16)


def eigenstate(spec, k):
    return StateVector(spec.eigenvectors[:, k].astype(complex), [])


def test_pulse_validation():
    Pulse([(1.0, 0.0), (2.0, 0.02)], 0.02)
    with pytest.raises(ValueError):
        Pulse([(0.0, 0.01)], 0.02)
    with pytest.raises(ValueError):
        Pulse([(1.0, 0.03)], 0.02)
    with pytest.raises(ValueError):
        Pulse([(1.0, -0.01)], 0.02)
    with pytest.raises(ValueError):
        Pulse([], -1.0)


def test_pulse_roundtrip(tmp_path):
    pulse = Pulse([(1.5, 0.02), (0.5, 0.0)], 0.02)
    assert pulse.total_duration == 2.0
    back = Pulse.from_json(pulse.to_json())
    assert back.segments == pulse.segments and back.delta == pulse.delta
    path = tmp_path / "pulse.csv"
    pulse.to_csv(path)
    assert path.read_text().splitlines()[0] == "duration,amplitude"


def test_statevector_norm():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]), [])
    sv = StateVector(np.array([1.0, 0.0]), [])
    assert sv.fidelity(np.array([1.0, 0.0])) == 1.0


def test_stationary_state():
    h0 = build_rabi(P)
    b = build_control(P)
    spec = diagonalize(h0, P)
    psi0 = eigenstate(spec, 3)
    pulse = Pulse([(5.0, 0.0)], 0.02)
    out = propagate(h0, b, pulse, psi0)
    assert out.fidelity(spec.eigenvectors[:, 3]) == pytest.approx(1.0, abs=1e-9)
    # the acquired global phase is e^{-i E t}
    phase = np.vdot(psi0.amplitudes, out.amplitudes)
    expected = np.exp(-1j * spec.eigenvalues[3] * 5.0)
    assert abs(phase - expected) < 1e-9


def test_unitarity_and_norm_drift():
    h0 = build_rabi(P)
    b = build_control(P)
    spec = diagonalize(h0, P)
    pulse = Pulse([(0.37, 0.02 * (k % 2)) for k in range(1000)], 0.02)
    out = propagate(h0, b, pulse, eigenstate(spec, 0))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-9


def test_segment_composition():
    h0 = build_rabi(P)
    b = build_control(P)
    spec = diagonalize(h0, P)
    psi0 = eigenstate(spec, 1)
    both = propagate(h0, b, Pulse([(1.2, 0.02), (0.8, 0.0)], 0.02), psi0)
    first = propagate(h0, b, Pulse([(1.2, 0.02)], 0.02), psi0)
    second = propagate(h0, b, Pulse([(0.8, 0.0)], 0.02), first)
    assert np.max(np.abs(both.amplitudes - second.amplitudes)) < 1e-10


def test_segment_refinement_invariance():
    h0 = build_rabi(P)
    b = build_control(P)
    spec = diagonalize(h0, P)
    psi0 = eigenstate(spec, 2)
    coarse = propagate(h0, b, Pulse([(2.0, 0.02)], 0.02), psi0)
    fine = propagate(h0, b, Pulse([(0.5, 0.02)] * 4, 0.02), psi0)
    assert np.max(np.abs(coarse.amplitudes - fine.amplitudes)) < 1e-10


def test_energy_conserved_on_free_stretch():
    h0 = build_rabi(P)
    b = build_control(P)
    rng = np.random.default_rng(3)
    raw = rng.normal(size=P.dim) + 1j * rng.normal(size=P.dim)
    psi0 = StateVector(raw / np.linalg.norm(raw), h0.basis)
    energies = []

    def record(t, psi):
        energies.append(float(np.real(np.vdot(psi, h0.entries @ psi))))

    propagate(h0, b, Pulse([(0.5, 0.0)] * 8, 0.02), psi0, record=record)
    assert max(energies) - min(energies) <= 1e-9


def test_time_reversal():
    h0 = build_rabi(P)
    b = build_control(P)
    spec = diagonalize(h0, P)
    psi0 = eigenstate(spec, 0)
    pulse = Pulse([(0.7, 0.02), (0.3, 0.0), (1.1, 0.02)], 0.02)
    forward = propagate(h0, b, pulse, psi0)
    neg_h0 = build_rabi(P)
    neg_h0.entries = -neg_h0.entries
    neg_b = build_control(P)
    neg_b.entries = -neg_b.entries
    reverse = Pulse(pulse.segments[::-1], pulse.delta)
    back = propagate(neg_h0, neg_b, reverse, forward)
    assert np.max(np.abs(back.amplitudes - psi0.amplitudes)) < 1e-8


def test_propagate_rejects_mismatch():
    h0 = build_rabi(P)
    b = build_control(ModelParams(1.0, 1.05, 0.2, 8))
    with pytest.raises(ValueError):
        propagate(h0, b, Pulse([(1.0, 0.0)], 0.02), StateVector(np.eye(P.dim)[0], []))


def test_design_identity_transfer():
    p = ModelParams(1.0, 1.05, 0.2, 32)
    spec = labelled_spectrum(p)
    graph = coupling_graph(spec, build_control(p), window=8)
    certify_chain(graph)
    pulse, fid, edges = design_transfer(
        spec, graph, BasisIndex(0, -1), BasisIndex(0, -1), 0.02
    )
    assert pulse.segments == [] and fid == 1.0 and edges == []


def test_design_requires_witness():
    p = ModelParams(1.0, 1.05, 0.0, 32)
    spec = diagonalize(build_rabi(p), p)
    graph = coupling_graph(spec, build_control(p), window=8)
    certify_chain(graph)  # disconnected: leaves no witness
    with pytest.raises(TransferError) as err:
        design_transfer(spec, graph, BasisIndex(0, -1), BasisIndex(0, 1), 0.02)
    assert err.value.stage == "certify"


def test_cross_spin_unreachable_at_zero():
    p = ModelParams(1.0, 1.05, 0.0, 32)
    with pytest.raises(TransferError) as err:
        transfer_experiment(p, BasisIndex(0, -1), BasisIndex(0, 1), 0.02)
    assert err.value.stage == "diagonalize"


def test_ladder_transfer():
    p = ModelParams(1.0, 1.05, 0.2, 32)
    report = transfer_experiment(
        p, BasisIndex(0, -1), BasisIndex(1, -1), 0.02, max_periods=500
    )
    assert report.fidelity >= 0.95
    assert report.total_time > 0
    d = json.loads(report.to_json())
    assert d["fidelity"] == report.fidelity
    assert d["populations"]


def test_populations_csv(tmp_path):
    p = ModelParams(1.0, 1.05, 0.2, 32)
    report = transfer_experiment(
        p, BasisIndex(0, -1), BasisIndex(1, -1), 0.02, max_periods=200
    )
    path = tmp_path / "pops.csv"
    report.populations_to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header.startswith("t,p")


def test_labelled_spectrum_strong_coupling():
    p = ModelParams(1.0, 1.05, 0.5, 32)
    spec = labelled_spectrum(p)
    assert len(spec.labels) == p.dim
    assert np.all(np.diff(spec.eigenvalues) >= 0)


def test_segment_counts_end_on_a_driven_half_period():
    # a trailing zero-amplitude half-period is free H0 evolution, which leaves
    # the fidelity to an H0 eigenstate unchanged; the design never ends on one
    for target in (BasisIndex(1, -1), BasisIndex(0, 1)):
        report = transfer_experiment(
            P, BasisIndex(0, -1), target, 0.02, max_periods=300
        )
        assert report.edges
        for edge in report.edges:
            assert edge["n_segments"] == 0 or edge["n_segments"] % 2 == 1
