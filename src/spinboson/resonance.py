"""Finite-window certification of spectral non-resonance and connectedness.

Two complementary views of the same hypothesis:

* order-of-resolution classification of gap quadruples from the closed-form
  series coefficients (which power of g first separates two equal gaps);
* numeric gap-collision scans and coupling graphs at a fixed g, with a
  breadth-first spanning witness over the non-resonant edges.

All statements are restricted to a trusted finite level window; every
report records that limitation.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .fockmodel import BasisIndex, LabeledOperator, ModelParams
from .perturbation import e0_closed, e2_closed, e4_closed, degenerate_slopes
from .spectral import Spectrum, track_branches

__all__ = [
    "GapQuadruple",
    "TransitionGraph",
    "GraphEdge",
    "ScanReport",
    "ChainCertificate",
    "classify_quadruple",
    "numeric_resonance_scan",
    "coupling_graph",
    "certify_chain",
    "degenerate_quadruple_check",
    "gap_scaling_exponent",
]

WINDOW_LIMITATION = (
    "gap comparisons are restricted to the trusted finite level window; "
    "levels outside it are not checked"
)

_EXACT_TOL = 1e-12


@dataclass
class GapQuadruple:
    """Order at which the closed forms separate the gaps (i-j) and (k-l)."""

    i: BasisIndex
    j: BasisIndex
    k: BasisIndex
    l: BasisIndex
    gap_difference: float
    resolution_order: int | str  # 0, 2, 4 or "unresolved"


def classify_quadruple(
    i: BasisIndex,
    j: BasisIndex,
    k: BasisIndex,
    l: BasisIndex,
    omega: float,
    Omega: float,
) -> GapQuadruple:
    """Lowest series order at which the two gaps differ.

    Order 0 compares the uncoupled gaps; order 2 the second-order coefficient
    differences; order 4 the fourth-order ones.
    """
    if omega == Omega:
        raise ValueError("omega = Omega: use degenerate_quadruple_check")
    if i == j:
        raise ValueError("need i != j")
    if (i, j) == (k, l):
        raise ValueError("need (i, j) != (k, l)")

    def gap_diff(coef) -> float:
        return (coef(i) - coef(j)) - (coef(k) - coef(l))

    scale = max(1.0, omega, Omega) * max(1, i.n, j.n, k.n, l.n)
    d0 = gap_diff(lambda lev: e0_closed(lev, omega, Omega))
    if abs(d0) > _EXACT_TOL * scale:
        return GapQuadruple(i, j, k, l, abs(d0), 0)
    d2 = gap_diff(lambda lev: e2_closed(lev, omega, Omega))
    if abs(d2) > _EXACT_TOL * scale:
        return GapQuadruple(i, j, k, l, abs(d0), 2)
    d4 = gap_diff(lambda lev: e4_closed(lev, omega, Omega))
    if abs(d4) > _EXACT_TOL * scale:
        return GapQuadruple(i, j, k, l, abs(d0), 4)
    return GapQuadruple(i, j, k, l, abs(d0), "unresolved")


@dataclass
class ScanReport:
    """Gap collisions within a level window at fixed g."""

    window: int
    tol: float
    raw: list[tuple[tuple[int, int], tuple[int, int], float]]
    filtered: list[tuple[tuple[int, int], tuple[int, int], float]]
    limitation: str = WINDOW_LIMITATION

    def to_json(self) -> str:
        def enc(rows):
            return [
                {"pair_a": list(a), "pair_b": list(b), "difference": d}
                for a, b, d in rows
            ]

        return json.dumps(
            {
                "window": self.window,
                "tol": self.tol,
                "raw_collisions": enc(self.raw),
                "filtered_collisions": enc(self.filtered),
                "limitation": self.limitation,
            }
        )


def numeric_resonance_scan(
    spectrum: Spectrum, window: int, tol: float
) -> ScanReport:
    """Enumerate gap collisions among the lowest `window` levels.

    The raw list holds every colliding pair of distinct level pairs; the
    filtered list keeps only those the non-resonance definition actually
    forbids, i.e. pairs sharing exactly one level (identical pairs are the
    same transition and disjoint pairs are exempt).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if window > spectrum.trust_cutoff:
        raise ValueError(
            f"window {window} exceeds trust cutoff {spectrum.trust_cutoff}"
        )
    w = spectrum.eigenvalues[:window]
    pairs = list(itertools.combinations(range(window), 2))
    raw = []
    filtered = []
    for (a, b) in itertools.combinations(pairs, 2):
        diff = abs(abs(w[a[1]] - w[a[0]]) - abs(w[b[1]] - w[b[0]]))
        if diff < tol:
            raw.append((a, b, float(diff)))
            if len(set(a) & set(b)) == 1:
                filtered.append((a, b, float(diff)))
    return ScanReport(window, tol, raw, filtered)


@dataclass
class GraphEdge:
    j: int
    k: int
    weight: float
    non_resonant: bool


@dataclass
class TransitionGraph:
    """Trusted levels as nodes, control couplings above the floor as edges."""

    nodes: list[tuple[int, BasisIndex]]
    edges: list[GraphEdge]
    floor: float
    tol: float
    excluded: list[int]
    chain_witness: list[tuple[int, int]] | None = None
    limitation: str = WINDOW_LIMITATION

    def node_of(self, label: BasisIndex) -> int:
        for k, lab in self.nodes:
            if lab == label:
                return k
        raise KeyError(f"no trusted node labelled {label}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "nodes": [
                    {"level": k, "n": lab.n, "s": lab.s} for k, lab in self.nodes
                ],
                "edges": [
                    {
                        "j": e.j,
                        "k": e.k,
                        "weight": e.weight,
                        "non_resonant": e.non_resonant,
                    }
                    for e in self.edges
                ],
                "floor": self.floor,
                "tol": self.tol,
                "excluded_unlabelled": self.excluded,
                "chain_witness": (
                    None
                    if self.chain_witness is None
                    else [list(e) for e in self.chain_witness]
                ),
                "limitation": self.limitation,
            }
        )

    def to_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["j", "k", "weight", "non_resonant"])
            for e in self.edges:
                w.writerow([e.j, e.k, f"{e.weight:.17g}", int(e.non_resonant)])


def coupling_graph(
    spectrum: Spectrum,
    b_op: LabeledOperator,
    floor: float | None = None,
    tol: float | None = None,
    window: int | None = None,
) -> TransitionGraph:
    """Graph of control couplings over the trusted window with resonance flags."""
    if window is None:
        window = spectrum.trust_cutoff
    if floor is None:
        floor = 1e-8 * float(np.linalg.norm(b_op.entries, 2))
    if floor <= 0:
        raise ValueError("floor must be positive")
    if tol is None:
        tol = 1e-9 * max(spectrum.spectral_diameter(), 1e-300)

    scan = numeric_resonance_scan(spectrum, window, tol)
    resonant_pairs = set()
    for a, b, _ in scan.filtered:
        resonant_pairs.add(a)
        resonant_pairs.add(b)

    nodes = []
    excluded = []
    for k in range(window):
        if k in spectrum.labels:
            nodes.append((k, spectrum.labels[k]))
        else:
            excluded.append(k)

    v = spectrum.eigenvectors
    b_eig = v.T @ b_op.entries @ v
    edges = []
    node_ids = [k for k, _ in nodes]
    for a, b in itertools.combinations(node_ids, 2):
        weight = float(b_eig[a, b])
        if abs(weight) > floor:
            edges.append(GraphEdge(a, b, weight, (a, b) not in resonant_pairs))
    return TransitionGraph(nodes, edges, floor, tol, excluded)


@dataclass
class ChainCertificate:
    """Spanning witness over non-resonant edges, or the disconnection report."""

    connected: bool
    witness: list[tuple[int, int]]
    components: list[list[int]]

    def to_json(self) -> str:
        return json.dumps(
            {
                "connected": self.connected,
                "witness": [list(e) for e in self.witness],
                "components": self.components,
            }
        )


def _bfs_forest(
    nodes: list[int], edges: list[tuple[int, int]]
) -> tuple[list[list[int]], list[tuple[int, int]]]:
    adjacency: dict[int, list[int]] = {k: [] for k in nodes}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    unseen = set(adjacency)
    components = []
    tree: list[tuple[int, int]] = []
    while unseen:
        root = min(unseen)
        comp = [root]
        unseen.discard(root)
        queue = [root]
        while queue:
            cur = queue.pop(0)
            for nxt in adjacency[cur]:
                if nxt in unseen:
                    unseen.discard(nxt)
                    comp.append(nxt)
                    tree.append((cur, nxt))
                    queue.append(nxt)
        components.append(sorted(comp))
    return components, tree


def certify_chain(graph: TransitionGraph) -> ChainCertificate:
    """Spanning tree over non-resonant edges, or the coupling components.

    The witness requires every edge to be a non-resonant transition. When no
    spanning witness exists, the reported components are the connectivity of
    the full coupling graph (resonant edges included), which tells the caller
    whether the obstruction is missing couplings or resonances.
    """
    nodes = [k for k, _ in graph.nodes]
    comps_nr, tree_nr = _bfs_forest(
        nodes, [(e.j, e.k) for e in graph.edges if e.non_resonant]
    )
    if len(comps_nr) == 1:
        graph.chain_witness = tree_nr
        return ChainCertificate(True, tree_nr, comps_nr)
    components, _ = _bfs_forest(nodes, [(e.j, e.k) for e in graph.edges])
    graph.chain_witness = None
    return ChainCertificate(False, [], components)


def degenerate_quadruple_check(window: int, omega: float) -> dict:
    """Exhaustive first-order separation check for the omega = Omega branches.

    Branches carry the uncoupled energy omega*k and the splitting slope
    +-sqrt(k/2) (slope 0 for the ground branch). A violation is a nontrivial
    quadruple with equal order-0 gaps and equal first-order slope differences.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    # (energy, slope, label) sorted ascending in energy
    branches: list[tuple[float, float, BasisIndex]] = [(0.0, 0.0, BasisIndex(0, -1))]
    j = 0
    while len(branches) < window:
        up, dn = degenerate_slopes(j)
        branches.append((omega * (j + 1), up, BasisIndex(j, 1)))
        branches.append((omega * (j + 1), dn, BasisIndex(j + 1, -1)))
        j += 1
    branches = branches[:window]

    violations = []
    n_checked = 0
    idx = range(len(branches))
    for a, b in itertools.permutations(idx, 2):
        for c, d in itertools.product(idx, idx):
            if (a, b) == (c, d):
                continue
            n_checked += 1
            e = (branches[a][0] - branches[b][0]) - (branches[c][0] - branches[d][0])
            if abs(e) > _EXACT_TOL:
                continue
            sdiff = (branches[a][1] - branches[b][1]) - (
                branches[c][1] - branches[d][1]
            )
            if abs(sdiff) <= _EXACT_TOL:
                violations.append(
                    (
                        str(branches[a][2]),
                        str(branches[b][2]),
                        str(branches[c][2]),
                        str(branches[d][2]),
                    )
                )
    return {
        "window": window,
        "n_quadruples": n_checked,
        "violations": violations,
        "n_violations": len(violations),
    }


def gap_scaling_exponent(
    params_base: ModelParams,
    i: BasisIndex,
    j: BasisIndex,
    k: BasisIndex,
    l: BasisIndex,
    g_lo: float = 1e-3,
    g_hi: float = 1e-2,
    n_points: int = 9,
) -> float:
    """Log-log slope of |(E_i - E_j) - (E_k - E_l)| versus g on [g_lo, g_hi]."""
    gs = np.geomspace(g_lo, g_hi, n_points)
    grid = np.concatenate([[0.0], gs])
    family = track_branches(params_base, grid)
    diffs = []
    for g in gs:
        d = (
            family.energy(i, g)
            - family.energy(j, g)
            - (family.energy(k, g) - family.energy(l, g))
        )
        diffs.append(abs(d))
    slope = np.polyfit(np.log(gs), np.log(diffs), 1)[0]
    return float(slope)
