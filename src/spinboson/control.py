"""Piecewise-constant bilinear propagation and resonant state transfer.

Each constant-control segment is propagated exactly through the
eigendecomposition of H0 + u*B (cached per distinct amplitude), so there
is no time-integration error. Transfers are driven bang-bang between
u = 0 and u = delta at the gap frequency of the mean Hamiltonian
H0 + (delta/2)*B, which removes the static Stark detuning of the drive.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .fockmodel import BasisIndex, LabeledOperator, ModelParams, build_control, build_rabi
from .resonance import TransitionGraph, certify_chain, coupling_graph
from .spectral import Spectrum, diagonalize, track_branches

__all__ = [
    "Pulse",
    "StateVector",
    "SegmentPropagator",
    "TransferError",
    "propagate",
    "design_transfer",
    "transfer_experiment",
    "TransferReport",
]

NORM_TOL = 1e-9
DEFAULT_MAX_PERIODS = 2000
DEFAULT_THRESHOLD = 0.95


class TransferError(RuntimeError):
    """A stage of the transfer pipeline failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


@dataclass
class Pulse:
    """Ordered piecewise-constant control segments with amplitudes in [0, delta]."""

    segments: list[tuple[float, float]]
    delta: float

    def __post_init__(self):
        if self.delta < 0 or not math.isfinite(self.delta):
            raise ValueError(f"delta must be finite and >= 0, got {self.delta}")
        for duration, amplitude in self.segments:
            if not (duration > 0 and math.isfinite(duration)):
                raise ValueError(f"segment duration must be positive, got {duration}")
            if not (0 <= amplitude <= self.delta):
                raise ValueError(
                    f"amplitude {amplitude} outside the admissible range [0, {self.delta}]"
                )

    @property
    def total_duration(self) -> float:
        return sum(d for d, _ in self.segments)

    def to_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["duration", "amplitude"])
            for duration, amplitude in self.segments:
                w.writerow([f"{duration:.17g}", f"{amplitude:.17g}"])

    def to_json(self) -> str:
        return json.dumps(
            {
                "delta": self.delta,
                "segments": [[d, a] for d, a in self.segments],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Pulse":
        d = json.loads(text)
        return cls([(float(a), float(b)) for a, b in d["segments"]], float(d["delta"]))


@dataclass
class StateVector:
    """Complex state over the product basis, unit norm to 1e-9."""

    amplitudes: np.ndarray
    basis: list[BasisIndex]

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def fidelity(self, other: np.ndarray) -> float:
        return float(abs(np.vdot(other, self.amplitudes)) ** 2)


class SegmentPropagator:
    """Exact segment evolution with per-amplitude cached eigendecompositions."""

    def __init__(self, h0: LabeledOperator, b: LabeledOperator, delta: float):
        if h0.dim != b.dim:
            raise ValueError(f"dimension mismatch: H0 is {h0.dim}, B is {b.dim}")
        self.h0 = h0.entries
        self.b = b.entries
        self.delta = delta
        self._cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def _decomposition(self, amplitude: float) -> tuple[np.ndarray, np.ndarray]:
        if amplitude not in self._cache:
            if not (0 <= amplitude <= self.delta):
                raise ValueError(
                    f"amplitude {amplitude} outside [0, {self.delta}]"
                )
            self._cache[amplitude] = np.linalg.eigh(self.h0 + amplitude * self.b)
        return self._cache[amplitude]

    def step(self, psi: np.ndarray, duration: float, amplitude: float) -> np.ndarray:
        w, v = self._decomposition(amplitude)
        return v @ (np.exp(-1j * w * duration) * (v.T @ psi))


def propagate(
    h0: LabeledOperator,
    b: LabeledOperator,
    pulse: Pulse,
    psi0: StateVector,
    record=None,
) -> StateVector:
    """Apply exp(-i (H0 + u B) tau) segment by segment.

    `record`, if given, is called with (t, psi) after every segment.
    """
    if psi0.dim != h0.dim:
        raise ValueError(f"dimension mismatch: state is {psi0.dim}, H0 is {h0.dim}")
    prop = SegmentPropagator(h0, b, pulse.delta)
    psi = psi0.amplitudes.copy()
    t = 0.0
    for duration, amplitude in pulse.segments:
        psi = prop.step(psi, duration, amplitude)
        t += duration
        if record is not None:
            record(t, psi)
    return StateVector(psi, psi0.basis)


def _witness_path(
    graph: TransitionGraph, source: int, target: int
) -> list[int]:
    """Breadth-first path from source to target over the chain witness."""
    if graph.chain_witness is None:
        raise TransferError("certify", "graph has no spanning chain witness")
    adjacency: dict[int, list[int]] = {}
    for a, b in graph.chain_witness:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    if source not in adjacency and source != target:
        raise TransferError("design", f"no path: level {source} not in the witness")
    prev = {source: source}
    queue = [source]
    while queue:
        cur = queue.pop(0)
        if cur == target:
            break
        for nxt in adjacency.get(cur, []):
            if nxt not in prev:
                prev[nxt] = cur
                queue.append(nxt)
    if target not in prev:
        raise TransferError(
            "design", f"no path between levels {source} and {target} in the witness"
        )
    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    return path[::-1]


def design_transfer(
    spectrum: Spectrum,
    graph: TransitionGraph,
    source: BasisIndex,
    target: BasisIndex,
    delta: float,
    h0: LabeledOperator | None = None,
    b: LabeledOperator | None = None,
    max_periods: int = DEFAULT_MAX_PERIODS,
    threshold: float = DEFAULT_THRESHOLD,
) -> tuple[Pulse, float, list[dict]]:
    """Bang-bang pulse along the witness path from source to target.

    Each edge is driven by a square wave between 0 and delta whose
    half-period is pi over the corresponding gap of the mean Hamiltonian
    H0 + (delta/2)*B; the segment count per edge maximizes the fidelity to
    the edge's far eigenstate within the period budget. Counts are 0 or
    odd: a trailing zero-amplitude half-period would leave the fidelity
    unchanged, so only roundoff could prefer it.

    Returns the concatenated pulse, the predicted final fidelity and a
    per-edge report.
    """
    if delta <= 0:
        raise TransferError("design", "delta must be positive")
    if spectrum.params is None:
        raise TransferError("design", "spectrum carries no model parameters")
    if h0 is None:
        h0 = build_rabi(spectrum.params)
    if b is None:
        b = build_control(spectrum.params)

    src = spectrum.level_of(source)
    tgt = spectrum.level_of(target)
    if src == tgt:
        return Pulse([], delta), 1.0, []

    path = _witness_path(graph, src, tgt)

    # gaps of the mean Hamiltonian, matched to the H0 levels by overlap
    w_mean, v_mean = np.linalg.eigh(h0.entries + (delta / 2) * b.entries)
    match = np.argmax(np.abs(spectrum.eigenvectors.T @ v_mean), axis=1)

    prop = SegmentPropagator(h0, b, delta)
    psi = spectrum.eigenvectors[:, src].astype(complex)
    segments: list[tuple[float, float]] = []
    edge_reports = []
    overall = 1.0
    for a, c in zip(path, path[1:]):
        gap = abs(w_mean[match[a]] - w_mean[match[c]])
        if gap <= 0:
            raise TransferError("design", f"vanishing drive gap on edge ({a},{c})")
        half = math.pi / gap
        far = spectrum.eigenvectors[:, c]
        best_fid = float(abs(np.vdot(far, psi)) ** 2)
        best_count = 0
        best_state = psi
        cur = psi
        for seg in range(2 * max_periods):
            driven = seg % 2 == 0
            cur = prop.step(cur, half, delta if driven else 0.0)
            if not driven:
                # free evolution cannot change the fidelity to an H0 eigenstate,
                # so only counts ending on a driven half-period are ranked
                continue
            fid = float(abs(np.vdot(far, cur)) ** 2)
            if fid > best_fid:
                best_fid, best_count, best_state = fid, seg + 1, cur
        for seg in range(best_count):
            segments.append((half, delta if seg % 2 == 0 else 0.0))
        psi = best_state
        overall = best_fid
        edge_reports.append(
            {
                "edge": [a, c],
                "half_period": half,
                "n_segments": best_count,
                "fidelity": best_fid,
            }
        )
        if best_fid < threshold:
            edge_reports[-1]["saturated_below_threshold"] = True
    return Pulse(segments, delta), overall, edge_reports


@dataclass
class TransferReport:
    """Outcome of a full transfer experiment."""

    params: ModelParams
    source: BasisIndex
    target: BasisIndex
    delta: float
    fidelity: float
    total_time: float
    edges: list[dict]
    populations: list[dict]
    tracked_levels: list[int]

    def to_json(self) -> str:
        return json.dumps(
            {
                "params": self.params.to_dict(),
                "source": {"n": self.source.n, "s": self.source.s},
                "target": {"n": self.target.n, "s": self.target.s},
                "delta": self.delta,
                "fidelity": self.fidelity,
                "total_time": self.total_time,
                "edges": self.edges,
                "tracked_levels": self.tracked_levels,
                "populations": self.populations,
            }
        )

    def populations_to_csv(self, path: str | os.PathLike) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["t"] + [f"p{k}" for k in self.tracked_levels])
            for row in self.populations:
                w.writerow(
                    [f"{row['t']:.17g}"]
                    + [f"{row['p'][i]:.17g}" for i in range(len(self.tracked_levels))]
                )


def labelled_spectrum(params: ModelParams, n_steps: int = 21) -> Spectrum:
    """Spectrum at params.g with labels carried by continuation from g = 0.

    Bare-basis overlap labelling degrades at strong coupling; continuation
    along a g-grid recovers the analytic labelling.
    """
    if params.g == 0:
        return diagonalize(build_rabi(params), params)
    lo, hi = min(0.0, params.g), max(0.0, params.g)
    grid = np.linspace(lo, hi, n_steps)
    grid[0 if params.g < 0 else -1] = params.g
    family = track_branches(params, grid)
    gi = family.grid_index(params.g)
    energies = family.energies[:, gi]
    order = np.argsort(energies)
    labels = {int(rank): family.labels[b] for rank, b in enumerate(order)}
    return Spectrum(
        params,
        "H_Rabi",
        energies[order],
        family.vectors[:, order, gi],
        labels,
        [],
        params.n_fock // 4,
    )


def transfer_experiment(
    params: ModelParams,
    source: BasisIndex,
    target: BasisIndex,
    delta: float,
    window: int | None = None,
    max_periods: int = DEFAULT_MAX_PERIODS,
    threshold: float = DEFAULT_THRESHOLD,
) -> TransferReport:
    """Full pipeline: diagonalize, graph, certify, design, propagate."""
    if source.s != target.s and params.g == 0:
        raise TransferError(
            "diagonalize", "cross-spin targets are unreachable at g = 0"
        )
    try:
        spectrum = labelled_spectrum(params)
    except Exception as exc:
        raise TransferError("diagonalize", str(exc)) from exc
    h0 = build_rabi(params)
    b = build_control(params)
    try:
        graph = coupling_graph(spectrum, b, window=window)
    except Exception as exc:
        raise TransferError("graph", str(exc)) from exc
    cert = certify_chain(graph)
    if not cert.connected:
        raise TransferError(
            "certify", f"graph splits into {len(cert.components)} components"
        )
    pulse, predicted, edge_reports = design_transfer(
        spectrum, graph, source, target, delta, h0, b, max_periods, threshold
    )

    tracked = sorted({spectrum.level_of(source), spectrum.level_of(target)} | {
        lev for rep in edge_reports for lev in rep["edge"]
    })
    tracked_vecs = spectrum.eigenvectors[:, tracked]
    populations = []

    def record(t, psi):
        populations.append(
            {"t": t, "p": [float(abs(c) ** 2) for c in tracked_vecs.T @ psi.conj()]}
        )

    psi0 = StateVector(
        spectrum.eigenvectors[:, spectrum.level_of(source)].astype(complex),
        h0.basis,
    )
    final = propagate(h0, b, pulse, psi0, record=record)
    fidelity = final.fidelity(
        spectrum.eigenvectors[:, spectrum.level_of(target)].astype(complex)
    )
    return TransferReport(
        params,
        source,
        target,
        delta,
        fidelity,
        pulse.total_duration,
        edge_reports,
        populations,
        tracked,
    )
