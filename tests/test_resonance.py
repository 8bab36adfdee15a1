import json
import math

import numpy as np
import pytest

from spinboson import (
    BasisIndex,
    ModelParams,
    build_control,
    build_rabi,
    certify_chain,
    classify_quadruple,
    coupling_graph,
    degenerate_quadruple_check,
    diagonalize,
    gap_scaling_exponent,
    numeric_resonance_scan,
)
from spinboson.control import labelled_spectrum
from spinboson.resonance import TransitionGraph


def test_classify_order_2():
    q = classify_quadruple(
        BasisIndex(0, 1),
        BasisIndex(0, -1),
        BasisIndex(1, 1),
        BasisIndex(1, -1),
        1.0,
        1.1,
    )
    assert q.resolution_order == 2
    assert q.gap_difference < 1e-12


@pytest.mark.parametrize("s", [1, -1])
def test_classify_order_4(s):
    q = classify_quadruple(
        BasisIndex(1, s),
        BasisIndex(0, s),
        BasisIndex(2, s),
        BasisIndex(1, s),
        1.0,
        1.1,
    )
    assert q.resolution_order == 4


def test_classify_order_0():
    q = classify_quadruple(
        BasisIndex(2, 1),
        BasisIndex(0, -1),
        BasisIndex(1, 1),
        BasisIndex(0, 1),
        1.0,
        1.13,
    )
    assert q.resolution_order == 0
    assert q.gap_difference > 0


def test_classify_rejects_malformed():
    a, b = BasisIndex(0, 1), BasisIndex(1, 1)
    with pytest.raises(ValueError):
        classify_quadruple(a, a, a, b, 1.0, 1.1)
    with pytest.raises(ValueError):
        classify_quadruple(a, b, a, b, 1.0, 1.1)
    with pytest.raises(ValueError):
        classify_quadruple(a, b, b, a, 1.0, 1.0)


def test_classify_rejects_near_tie():
    a, b = BasisIndex(0, 1), BasisIndex(0, -1)
    with pytest.raises(ValueError):
        classify_quadruple(a, b, BasisIndex(1, 1), BasisIndex(1, -1), 1.0, 1.0 + 1e-13)


def test_scan_uncoupled_has_collisions():
    p = ModelParams(1.0, 1.1, 0.0, 32)
    spec = diagonalize(build_rabi(p), p)
    report = numeric_resonance_scan(spec, 8, 1e-9)
    assert report.raw  # ladder gaps all equal omega
    assert report.filtered  # e.g. (0,s),(1,s) vs (1,s),(2,s) share one level


def test_scan_coupled_is_clean():
    p = ModelParams(1.0, 1.05, 0.3, 64)
    spec = labelled_spectrum(p)
    spec.trust_cutoff = max(spec.trust_cutoff, 8)
    report = numeric_resonance_scan(spec, 8, 1e-9)
    assert report.filtered == []


def test_scan_huge_tol_collides_everything():
    p = ModelParams(1.0, 1.1, 0.0, 32)
    spec = diagonalize(build_rabi(p), p)
    diameter = spec.spectral_diameter()
    report = numeric_resonance_scan(spec, 6, 10 * diameter)
    n_pairs = math.comb(math.comb(6, 2), 2)
    assert len(report.raw) == n_pairs


def test_scan_respects_trust_cutoff():
    p = ModelParams(1.0, 1.1, 0.0, 16)
    spec = diagonalize(build_rabi(p), p)
    with pytest.raises(ValueError):
        numeric_resonance_scan(spec, spec.trust_cutoff + 1, 1e-9)
    with pytest.raises(ValueError):
        numeric_resonance_scan(spec, 4, 0.0)


def test_scan_refuses_window_beyond_dimension():
    p = ModelParams(1.0, 1.1, 0.0, 8)
    spec = diagonalize(build_rabi(p), p)
    spec.trust_cutoff = 40  # a widened trust must not reach past the matrix
    with pytest.raises(ValueError, match="dimension 16"):
        numeric_resonance_scan(spec, 40, 1e-9)
    assert numeric_resonance_scan(spec, 16, 1e-9).window == 16


def test_graph_at_zero_coupling():
    p = ModelParams(1.0, 1.1, 0.0, 64)
    spec = diagonalize(build_rabi(p), p)
    graph = coupling_graph(spec, build_control(p), window=12)
    for e in graph.edges:
        la, lb = spec.labels[e.j], spec.labels[e.k]
        assert la.s == lb.s and abs(la.n - lb.n) == 1
        n = min(la.n, lb.n)
        assert abs(e.weight) == pytest.approx(math.sqrt((n + 1) / 2), abs=1e-12)
    # ladder edge count inside the window: pairs of consecutive n per spin
    assert len(graph.edges) == 10


def test_graph_cross_spin_weight_at_g():
    # the (n,s)<->(n,-s) edges open up at g != 0 with weight ~ g * omega /
    # (Omega^2 - omega^2); the linear prediction holds for small g and the
    # edge itself persists at strong coupling
    for g, rel in ((0.02, 0.05), (0.2, None)):
        p = ModelParams(1.0, 1.1, g, 64)
        spec = labelled_spectrum(p)
        graph = coupling_graph(spec, build_control(p), window=12)
        a = graph.node_of(BasisIndex(0, 1))
        b = graph.node_of(BasisIndex(0, -1))
        weight = next(e.weight for e in graph.edges if {e.j, e.k} == {a, b})
        if rel is not None:
            assert abs(weight) == pytest.approx(g * 1.0 / (1.1**2 - 1.0), rel=rel)
        else:
            assert abs(weight) > 0.1


def test_certify_chain_connected():
    p = ModelParams(1.0, 1.05, 0.2, 64)
    spec = labelled_spectrum(p)
    spec.trust_cutoff = max(spec.trust_cutoff, 12)
    graph = coupling_graph(spec, build_control(p), window=12)
    cert = certify_chain(graph)
    assert cert.connected
    assert len(cert.witness) == 11
    assert graph.chain_witness == cert.witness


def test_certify_chain_two_components_at_zero():
    p = ModelParams(1.0, 1.05, 0.0, 64)
    spec = diagonalize(build_rabi(p), p)
    graph = coupling_graph(spec, build_control(p), window=12)
    cert = certify_chain(graph)
    assert not cert.connected
    assert len(cert.components) == 2
    spins = []
    for comp in cert.components:
        comp_spins = {spec.labels[k].s for k in comp}
        assert len(comp_spins) == 1
        spins.append(comp_spins.pop())
    assert sorted(spins) == [-1, 1]


def test_certify_chain_empty_graph():
    nodes = [(k, BasisIndex.from_linear(k)) for k in range(4)]
    graph = TransitionGraph(nodes, [], 1e-8, 1e-9, [])
    cert = certify_chain(graph)
    assert not cert.connected
    assert cert.components == [[0], [1], [2], [3]]


def test_degenerate_quadruple_check():
    report = degenerate_quadruple_check(6, 1.0)
    assert report["n_violations"] == 0
    assert degenerate_quadruple_check(1, 1.0)["n_violations"] == 0
    big = degenerate_quadruple_check(12, 1.0)
    assert big["n_violations"] == 0
    with pytest.raises(ValueError):
        degenerate_quadruple_check(6, 0.0)


def test_gap_scaling_exponents():
    p = ModelParams(1.0, 1.1, 0.0, 32)
    slope2 = gap_scaling_exponent(
        p, BasisIndex(0, 1), BasisIndex(0, -1), BasisIndex(1, 1), BasisIndex(1, -1)
    )
    assert slope2 == pytest.approx(2.0, abs=0.15)
    slope4 = gap_scaling_exponent(
        p, BasisIndex(1, 1), BasisIndex(0, 1), BasisIndex(2, 1), BasisIndex(1, 1)
    )
    assert slope4 == pytest.approx(4.0, abs=0.15)


def test_reports_serialize():
    p = ModelParams(1.0, 1.05, 0.2, 32)
    spec = labelled_spectrum(p)
    graph = coupling_graph(spec, build_control(p), window=8)
    cert = certify_chain(graph)
    gd = json.loads(graph.to_json())
    assert "limitation" in gd and gd["edges"]
    cd = json.loads(cert.to_json())
    assert cd["connected"] == cert.connected
    scan = numeric_resonance_scan(spec, 8, 1e-9)
    sd = json.loads(scan.to_json())
    assert sd["window"] == 8
