"""Certify non-resonance and connectedness of the control coupling graph.

At g = 0 the control only couples same-spin neighbours and all those gaps
coincide, so the graph splits into two spin ladders. At generic g != 0 the
dressed levels repel, cross-spin couplings open up, and a spanning chain of
non-resonant transitions exists.
"""

import numpy as np

from spinboson import (
    ModelParams,
    build_control,
    certify_chain,
    coupling_graph,
    diagonalize,
    build_rabi,
    labelled_spectrum,
    numeric_resonance_scan,
)

base = ModelParams(omega=1.0, Omega=1.05, g=0.0, n_fock=64)
window = 12

spec0 = diagonalize(build_rabi(base), base)
cert0 = certify_chain(coupling_graph(spec0, build_control(base), window=window))
print(f"g = 0: connected = {cert0.connected}, components = {cert0.components}")

for g in np.linspace(0.05, 0.5, 10):
    params = base.with_g(float(g))
    spec = labelled_spectrum(params)
    scan = numeric_resonance_scan(spec, window, tol=1e-9)
    graph = coupling_graph(spec, build_control(params), window=window)
    cert = certify_chain(graph)
    print(
        f"g = {g:.3f}: forbidden collisions = {len(scan.filtered)}, "
        f"edges = {len(graph.edges)}, witness edges = {len(cert.witness)}"
    )
