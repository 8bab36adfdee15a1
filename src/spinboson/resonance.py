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

import itertools
from collections import deque
from dataclasses import dataclass

import numpy as np

from ._io import dump_json
from .fockmodel import BasisIndex, LabeledOperator, ModelParams, bare_energy, tied
from .perturbation import e0_closed, e2_closed, e4_closed, degenerate_slopes
from .spectral import Spectrum, control_norm, track_branches

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
SCALING_GRID = np.geomspace(1e-3, 1e-2, 9)  # the g samples of `gap_scaling_exponent`


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
    differences; order 4 the fourth-order ones. The closed forms are taken in
    units of omega, at (1, Omega/omega): E0 scales as omega, E2 as 1/omega and
    E4 as 1/omega^3, so one tolerance fits all three only there, and the order
    does not depend on the unit of energy. `gap_difference` is the order-0
    gap difference times omega.
    """
    ratio = Omega / omega
    if tied(1.0, ratio):
        raise ValueError("omega = Omega: use degenerate_quadruple_check")
    if i == j:
        raise ValueError("need i != j")
    if (i, j) == (k, l):
        raise ValueError("need (i, j) != (k, l)")

    def gap_diff(coef) -> float:
        ei, ej, ek, el = (coef(lev, 1.0, ratio) for lev in (i, j, k, l))
        return (ei - ej) - (ek - el)

    scale = max(1.0, ratio) * max(1, i.n, j.n, k.n, l.n)
    gap = abs(gap_diff(e0_closed)) * omega
    for order, coef in ((0, e0_closed), (2, e2_closed), (4, e4_closed)):
        if abs(gap_diff(coef)) > _EXACT_TOL * scale:
            return GapQuadruple(i, j, k, l, gap, order)
    return GapQuadruple(i, j, k, l, gap, "unresolved")


@dataclass
class ScanReport:
    """Gap collisions within a level window at fixed g."""

    window: int
    tol: float
    raw: list[tuple[tuple[int, int], tuple[int, int], float]]
    filtered: list[tuple[tuple[int, int], tuple[int, int], float]]
    limitation: str = WINDOW_LIMITATION

    def to_dict(self) -> dict:
        def enc(rows):
            return [
                {"pair_a": list(a), "pair_b": list(b), "difference": d}
                for a, b, d in rows
            ]

        return {
            "window": self.window,
            "tol": self.tol,
            "raw_collisions": enc(self.raw),
            "filtered_collisions": enc(self.filtered),
            "limitation": self.limitation,
        }

    def to_json(self) -> str:
        return dump_json(self.to_dict())


def _close_pairs(keys: np.ndarray, reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs p < q including every pair whose keys differ by <= reach exactly."""
    order = np.argsort(keys)  # sorted, those follow s[i] up to fl(s[i] + reach)
    s = keys[order]
    n_next = np.searchsorted(s, s + reach, side="right") - np.arange(1, s.size + 1)
    i = np.repeat(np.arange(s.size), n_next)
    j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(n_next) - n_next, n_next)
    return np.minimum(order[i], order[j]), np.maximum(order[i], order[j])


def numeric_resonance_scan(
    spectrum: Spectrum, window: int, tol: float | None = None
) -> ScanReport:
    """Enumerate gap collisions among the lowest `window` levels.

    The raw list holds every colliding pair of distinct level pairs; the
    filtered list keeps only those the non-resonance definition actually
    forbids, i.e. pairs sharing exactly one level (identical pairs are the
    same transition and disjoint pairs are exempt). The default `tol` is
    1e-9 times the spectral diameter (1e-300 when that is 0).
    """
    if tol is None:
        tol = 1e-9 * max(spectrum.spectral_diameter(), 1e-300)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if window < min(1, spectrum.dim):  # an empty spectrum has the empty window
        raise ValueError(f"window {window} must be >= 1")
    if window > spectrum.dim:
        raise ValueError(f"window {window} exceeds the dimension {spectrum.dim}")
    if not spectrum.trusts(window):
        raise ValueError(
            f"window {window} exceeds trust cutoff {spectrum.trust_cutoff}"
        )
    w = spectrum.eigenvalues[:window]
    lo, hi = np.triu_indices(window, 1)  # level pairs in combinations order
    gaps = np.abs(w[hi] - w[lo])
    a, b = _close_pairs(gaps, tol)  # fl(d) < tol implies d < tol exactly
    diff = np.abs(gaps[a] - gaps[b])
    keep = np.lexsort((b, a))  # the loop's (pair_a, pair_b) order
    keep = keep[diff[keep] < tol]  # the loop's own predicate
    a, b, diff = a[keep].tolist(), b[keep].tolist(), diff[keep].tolist()
    pairs = list(zip(lo.tolist(), hi.tolist()))
    raw = [(pairs[p], pairs[q], d) for p, q, d in zip(a, b, diff)]
    filtered = [(pa, pb, d) for pa, pb, d in raw if len(set(pa) & set(pb)) == 1]
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

    def to_dict(self) -> dict:
        return {
            "nodes": [{"level": k, "n": lab.n, "s": lab.s} for k, lab in self.nodes],
            "edges": [
                {"j": e.j, "k": e.k, "weight": e.weight, "non_resonant": e.non_resonant}
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

    def to_json(self) -> str:
        return dump_json(self.to_dict())


def coupling_graph(
    spectrum: Spectrum,
    b_op: LabeledOperator,
    window: int,
    floor: float | None = None,
    tol: float | None = None,
) -> TransitionGraph:
    """Graph of control couplings over the lowest `window` levels with resonance flags.
    The default floor 1e-8 * ||X_N|| assumes b_op is the control X (x) 1."""
    if window < 1:
        raise ValueError(f"window {window} must be >= 1: no level means no path")
    if floor is None:
        floor = 1e-8 * control_norm(b_op.dim // 2)
    if floor <= 0:
        raise ValueError("floor must be positive")
    scan = numeric_resonance_scan(spectrum, window, tol)
    resonant_pairs = {pair for a, b, _ in scan.filtered for pair in (a, b)}

    nodes = []
    excluded = []
    for k in range(window):
        if k in spectrum.labels:
            nodes.append((k, spectrum.labels[k]))
        else:
            excluded.append(k)

    vw = spectrum.eigenvectors[:, :window]
    b_eig = vw.T @ (b_op.entries @ vw)
    edges = []
    node_ids = [k for k, _ in nodes]
    for a, b in itertools.combinations(node_ids, 2):
        weight = float(b_eig[a, b])
        if abs(weight) > floor:
            edges.append(GraphEdge(a, b, weight, (a, b) not in resonant_pairs))
    return TransitionGraph(nodes, edges, floor, scan.tol, excluded)


@dataclass
class ChainCertificate:
    """Spanning witness over non-resonant edges, or the disconnection report."""

    connected: bool
    witness: list[tuple[int, int]]
    components: list[list[int]]

    def to_dict(self) -> dict:
        return {
            "connected": self.connected,
            "witness": [list(e) for e in self.witness],
            "components": self.components,
        }

    def to_json(self) -> str:
        return dump_json(self.to_dict())


def adjacency(edges: list[tuple[int, int]]) -> dict[int, list[int]]:
    """Undirected neighbour lists, each in edge order."""
    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return adj


def bfs_parents(adj: dict[int, list[int]], root: int) -> dict[int, int]:
    """Breadth-first parent of every node reachable from root, in discovery order.

    Neighbours are visited in the order `adjacency` lists them; the root is
    its own parent.
    """
    parent = {root: root}
    queue = deque([root])
    while queue:
        cur = queue.popleft()
        for nxt in adj.get(cur, ()):
            if nxt not in parent:
                parent[nxt] = cur
                queue.append(nxt)
    return parent


def _bfs_forest(
    nodes: list[int], edges: list[tuple[int, int]]
) -> tuple[list[list[int]], list[tuple[int, int]]]:
    adj = adjacency(edges)
    unseen = set(nodes)
    components = []
    tree: list[tuple[int, int]] = []
    while unseen:
        root = min(unseen)
        parent = bfs_parents(adj, root)
        unseen -= parent.keys()
        components.append(sorted(parent))
        tree += [(p, k) for k, p in parent.items() if k != root]
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

    Branches carry their `bare_energy` in units of omega (the integer k at
    Omega = omega), so the report does not depend on omega, and the splitting
    slope +-sqrt(k/2), 0 for the ground branch. A violation is a nontrivial
    quadruple with equal order-0 gaps and slope differences, swept for on the
    sorted n**2 slope differences in O(n**2 log n + candidates); the n diagonal
    differences, all exactly 0, enter the sweep as one.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    if not np.isfinite(omega * (window // 2 + 1)):  # bounds the top branch energy
        raise ValueError(f"omega {omega} overflows the energies of {window} levels")
    slope, levels = [0.0], [BasisIndex(0, -1)]  # ascending in energy
    for j in range(window // 2):
        slope += degenerate_slopes(j)
        levels += [BasisIndex(j, 1), BasisIndex(j + 1, -1)]
    levels = levels[:window]
    energy = [bare_energy(lab.n, lab.s, 1.0, 1.0) for lab in levels]
    labels = [str(lab) for lab in levels]
    n = len(labels)
    x, y = (np.subtract.outer(v, v).ravel() for v in (energy, slope[:n]))
    # the diagonal entries k = a*(n + 1) all have x = y = 0 exactly, so entry 0
    # stands for all of them in the sweep
    flat = np.arange(n * n)
    keys = flat[(flat % (n + 1) != 0) | (flat == 0)]
    # fl(d) <= tol implies d <= 2 tol
    p, q = (keys[i] for i in _close_pairs(y[keys], 2 * _EXACT_TOL))
    hit = ~(np.abs(x[p] - x[q]) > _EXACT_TOL) & (np.abs(y[p] - y[q]) <= _EXACT_TOL)
    p, q, diag = p[hit], q[hit], p[hit] == 0  # entry 0 sorts first, so it is p
    # both ways round, except (a, b) on the diagonal, which a != b excludes;
    # (c, d) on it expands to all n diagonal entries
    p, q = (
        np.r_[p[~diag], q[~diag], np.repeat(q[diag], n)],
        np.r_[q[~diag], p[~diag], np.tile(np.arange(n) * (n + 1), diag.sum())],
    )
    rows = np.column_stack(np.divmod(p, n) + np.divmod(q, n))[np.lexsort((q, p))]
    violations = [tuple(labels[k] for k in row) for row in rows.tolist()]
    return {
        "window": window,
        "n_quadruples": n * (n - 1) * (n * n - 1),
        "violations": violations,
        "n_violations": len(violations),
    }


def gap_scaling_exponent(
    params_base: ModelParams,
    i: BasisIndex,
    j: BasisIndex,
    k: BasisIndex,
    l: BasisIndex,
) -> float:
    """Log-log slope of |(E_i - E_j) - (E_k - E_l)| versus g over SCALING_GRID."""
    family = track_branches(params_base, np.concatenate([[0.0], SCALING_GRID]))
    diffs = []
    for g in SCALING_GRID:
        d = (
            family.energy(i, g)
            - family.energy(j, g)
            - (family.energy(k, g) - family.energy(l, g))
        )
        diffs.append(abs(d))
    slope = np.polyfit(np.log(SCALING_GRID), np.log(diffs), 1)[0]
    return float(slope)
