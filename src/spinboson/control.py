"""Piecewise-constant bilinear propagation and resonant state transfer.

Each constant-control segment is propagated exactly through the checked
eigendecomposition of H0 + u*B (`dense_eigh`, cached per distinct amplitude),
so there is no time-integration error. The eigenbasis is real, so a step
runs in real arithmetic on the (re, im) pair of the state: two real matrix
products with the complex phase applied between them. Transfers are driven
bang-bang between u = 0 and u = delta at the gap frequency of the mean
Hamiltonian H0 + (delta/2)*B, which removes the static Stark detuning of the
drive. The drive is periodic, so each edge's segment count is searched on
its one-period (Floquet) operator P in the driven eigenbasis, B periods per
matrix-vector product with P^B (baby-step/giant-step). B is a power of two
<= 2N, so the B precomputed rows never outgrow P, and it doubles only while
the flops of one more squaring are fewer than those of the products it saves
over max_periods; only the kept segments are then stepped.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._io import dump_json, write_csv
from .fockmodel import BasisIndex, LabeledOperator, ModelParams, build_control, build_rabi
from .resonance import (
    TransitionGraph,
    adjacency,
    bfs_parents,
    certify_chain,
    coupling_graph,
)
from .spectral import Spectrum, default_window, dense_eigh, labelled_spectrum

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
        write_csv(path, ["duration", "amplitude"], self.segments)

    def to_json(self) -> str:
        return dump_json(
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
    """Exact segment evolution with per-amplitude cached eigendecompositions.

    `step` never forms a complex copy of the real eigenbasis: the state's
    real and imaginary parts go through each basis change as the two columns
    of one real matrix product, and each amplitude keeps the phase vector of its
    last duration, which a square wave repeats. `driven_fidelities` ranks
    square-wave segment counts between 0 and delta on the one-period operator
    instead of stepping.
    """

    def __init__(self, h0: LabeledOperator, b: LabeledOperator, delta: float):
        if h0.dim != b.dim:
            raise ValueError(f"dimension mismatch: H0 is {h0.dim}, B is {b.dim}")
        self.h0 = h0.entries
        self.b = b.entries
        self.delta = delta
        self._cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self._phases: dict[float, tuple[float, np.ndarray]] = {}  # last (duration, phase)

    def _decomposition(self, amplitude: float) -> tuple[np.ndarray, np.ndarray]:
        if amplitude not in self._cache:
            if not (0 <= amplitude <= self.delta):
                raise ValueError(
                    f"amplitude {amplitude} outside [0, {self.delta}]"
                )
            self._cache[amplitude] = dense_eigh(self.h0 + amplitude * self.b, "H0 + u*B")
        return self._cache[amplitude]

    def step(self, psi: np.ndarray, duration: float, amplitude: float) -> np.ndarray:
        """exp(-i (H0 + u B) duration) psi as a new contiguous complex vector."""
        w, v = self._decomposition(amplitude)
        last = self._phases.get(amplitude)
        if last is None or last[0] != duration:
            last = self._phases[amplitude] = (duration, np.exp(-1j * w * duration))
        return _real_matvec(v, _real_matvec(v.T, psi) * last[1])

    @cached_property
    def _overlap(self) -> np.ndarray:
        """V_0^T V_delta: the free eigenbasis against the driven one."""
        return self._decomposition(0.0)[1].T @ self._decomposition(self.delta)[1]

    def driven_fidelities(
        self, psi: np.ndarray, far: np.ndarray, half: float, horizon: int | None = None
    ):
        """|<far| psi(m)>|^2 for m = 0, 1, 2, ..., without end, where psi(m) is
        psi after 2m + 1 half-periods `half` of the square wave that starts on
        u = delta and alternates with u = 0; `far` is real.

        No lab-basis state is built. In the driven eigenbasis one period is
        P = M^T Phi_0 M Phi_delta, with M = V_0^T V_delta and
        Phi_u = exp(-i w_u half), so the amplitude is r^T P^m c with
        c = V_delta^T psi and r = Phi_delta * (V_delta^T far). The periods go
        in blocks of B = `_block_size(horizon, 2N)`: the rows r^T P^b, b < B,
        and P^B come from log2(B) squarings, then each giant step is one
        product P^B c and the B fidelities of a block one (B, 2N) @ (2N)
        product. Memory does not grow with m; without a horizon, B = 1.
        """
        w_d, v_d = self._decomposition(self.delta)
        w_0, _ = self._decomposition(0.0)
        m = self._overlap
        phase_d = np.exp(-1j * w_d * half)
        # P is built from real products, with no complex (2N)^2 temporary:
        # Re(M^T Phi_0 M) = M^T cos M, Im = -M^T sin M
        power = np.empty(m.shape, dtype=complex)
        power.real = m.T @ (m * np.cos(w_0 * half)[:, None])
        power.imag = m.T @ (m * -np.sin(w_0 * half)[:, None])
        power *= phase_d
        c = _real_matvec(v_d.T, psi)
        rows = (phase_d * (v_d.T @ far))[None, :]
        block = _block_size(horizon, len(c))
        while len(rows) < block:
            rows = np.vstack([rows, rows @ power])  # r^T P^b for b < 2 len(rows)
            power = power @ power
        while True:
            yield from (np.abs(rows @ c) ** 2).tolist()
            c = power @ c


def _block_size(horizon: int | None, dim: int) -> int:
    """Periods per giant step of `driven_fidelities`, a power of two B chosen by
    flop count: doubling B costs one more squaring of P (dim^3 complex
    multiply-adds) and B more rows (B dim^2), and saves horizon / (2B) giant
    steps of dim^2 each. So B doubles while horizon > 2B (dim + B), and while
    2B <= dim, so the B rows never outgrow P; 1 without a horizon. A squaring
    runs faster per flop than a matrix-vector product, so the count errs
    towards small B."""
    block = 1
    while horizon is not None and 2 * block <= dim and horizon > 2 * block * (dim + block):
        block *= 2
    return block


def _real_matvec(v: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """v @ psi for a real matrix v and a complex vector psi, as one real GEMM
    on the (N, 2) (re, im) columns of psi; no complex copy of v is formed."""
    pairs = np.ascontiguousarray(psi, dtype=complex).view(float).reshape(-1, 2)
    return (v @ pairs).view(complex).ravel()


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


def _witness_path(graph: TransitionGraph, source: int, target: int) -> list[int]:
    """Breadth-first path from source to target over the chain witness."""
    if graph.chain_witness is None:
        raise TransferError("certify", "graph has no spanning chain witness")
    prev = bfs_parents(adjacency(graph.chain_witness), source)
    if len(prev) == 1 and source != target:
        raise TransferError("design", f"no path: level {source} not in the witness")
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
) -> tuple[Pulse, float, list[dict]]:
    """Bang-bang pulse along the witness path from source to target.

    Each edge is driven by a square wave between 0 and delta whose
    half-period is pi over the corresponding gap of the mean Hamiltonian
    H0 + (delta/2)*B; the segment count per edge maximizes the fidelity to
    the edge's far eigenstate within DEFAULT_MAX_PERIODS periods. Counts are
    0 or odd: a trailing zero-amplitude half-period would leave the fidelity
    unchanged, so only roundoff could prefer it. The counts are ranked on the
    one-period operator (`SegmentPropagator.driven_fidelities`); the first
    strict maximum wins, and only its segments are stepped, so the reported
    fidelities are those of the stepped states.

    Returns the concatenated pulse, the predicted final fidelity and a
    per-edge report.
    """
    report = _sweep(
        spectrum, graph, source, target, delta, DEFAULT_MAX_PERIODS, DEFAULT_THRESHOLD
    )
    fidelity = report.edges[-1]["fidelity"] if report.edges else 1.0
    return report.pulse, fidelity, report.edges


def _sweep(spectrum, graph, source, target, delta, max_periods, threshold):
    """The `TransferReport` of `design_transfer`'s pulse for these `max_periods`
    and `threshold`. Per edge, `driven_fidelities` ranks the counts; then
    `step` runs the kept segments alone, and its states give the populations
    of the path levels, the edge fidelity and the next edge's start."""
    if delta <= 0:
        raise TransferError("design", "delta must be positive")
    if spectrum.params is None:
        raise TransferError("design", "spectrum carries no model parameters")
    h0, b = build_rabi(spectrum.params), build_control(spectrum.params)
    src, tgt = spectrum.level_of(source), spectrum.level_of(target)
    psi = spectrum.eigenvectors[:, src].astype(complex)
    path = [src] if src == tgt else _witness_path(graph, src, tgt)
    levels = sorted(path)
    level_vecs = spectrum.eigenvectors[:, levels]

    prop = SegmentPropagator(h0, b, delta)
    segments: list[tuple[float, float]] = []
    populations, edge_reports, t = [], [], 0.0
    for a, c in zip(path, path[1:]):
        # a gap of the mean Hamiltonian, matched to the edge's H0 levels by overlap
        w_mean, v_mean = prop._decomposition(delta / 2)
        ia, ic = np.argmax(np.abs(spectrum.eigenvectors[:, [a, c]].T @ v_mean), axis=1)
        gap = abs(w_mean[ia] - w_mean[ic])
        if gap <= 0:
            raise TransferError("design", f"vanishing drive gap on edge ({a},{c})")
        half = math.pi / gap
        far = spectrum.eigenvectors[:, c]
        best_fid, best_count = float(abs(np.vdot(far, psi)) ** 2), 0
        # free evolution cannot change the fidelity to an H0 eigenstate, so
        # only counts ending on a driven half-period are ranked
        search = prop.driven_fidelities(psi, far, half, max_periods)
        for m, fid in enumerate(itertools.islice(search, max_periods)):
            if fid > best_fid:
                best_fid, best_count = fid, 2 * m + 1
        for seg in range(best_count):
            amplitude = delta if seg % 2 == 0 else 0.0
            psi = prop.step(psi, half, amplitude)
            segments.append((half, amplitude))
            t += half
            amps = level_vecs.T @ psi
            populations.append({"t": t, "p": [float(abs(x) ** 2) for x in amps]})
        if best_count:
            best_fid = float(abs(np.vdot(far, psi)) ** 2)
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
    final = StateVector(psi, h0.basis)
    fidelity = final.fidelity(spectrum.eigenvectors[:, tgt].astype(complex))
    return TransferReport(
        spectrum.params,
        source,
        target,
        delta,
        fidelity,
        Pulse(segments, delta),
        edge_reports,
        populations,
        levels,
    )


@dataclass
class TransferReport:
    """Outcome of a full transfer experiment."""

    params: ModelParams
    source: BasisIndex
    target: BasisIndex
    delta: float
    fidelity: float
    pulse: Pulse
    edges: list[dict]
    populations: list[dict]
    tracked_levels: list[int]

    @property
    def total_time(self) -> float:
        return self.pulse.total_duration

    def to_json(self) -> str:
        return dump_json(
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
        write_csv(
            path,
            ["t"] + [f"p{k}" for k in self.tracked_levels],
            ([row["t"], *row["p"]] for row in self.populations),
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
    """Full pipeline: diagonalize, graph, certify, design; the design sweep
    steps the kept segments once and returns the report, so nothing is replayed.
    The default window is `default_window` cut to the trusted levels, as in the CLI."""
    if source.s != target.s and params.g == 0:
        raise TransferError(
            "diagonalize", "cross-spin targets are unreachable at g = 0"
        )
    spectrum = labelled_spectrum(params)
    if window is None:
        window = min(default_window(params.n_fock), spectrum.trust_cutoff)
    try:
        graph = coupling_graph(spectrum, build_control(params), window=window)
    except ValueError as exc:
        raise TransferError("graph", str(exc)) from exc
    cert = certify_chain(graph)
    if not cert.connected:
        raise TransferError(
            "certify", f"graph splits into {len(cert.components)} components"
        )
    return _sweep(spectrum, graph, source, target, delta, max_periods, threshold)
