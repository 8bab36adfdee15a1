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
over max_periods. The same squarings build the rows of the path levels'
amplitudes, so the populations, the edge fidelity and the next edge's start
state come from the search's own iterates, and a transfer steps nothing.
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
    last duration, which a square wave repeats. A square wave between 0 and
    delta is not stepped: `_search` sets up its one-period operator,
    `_fidelity_blocks` ranks its segment counts and `_replay` rebuilds the
    kept count's populations and state from the same iterates.
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

    def _search(self, psi, far, half, horizon, tracked=None):
        """The start of the blocked search over the square wave of half-period
        `half` that starts on u = delta: (c, rows, P^B, population rows).

        No lab-basis state is built. In the driven eigenbasis one period is
        P = M^T Phi_0 M Phi_delta, with M = V_0^T V_delta and
        Phi_u = exp(-i w_u half). With c = V_delta^T psi, the state after
        2m + 1 half-periods is V_delta Phi_delta P^m c, so its amplitude on
        the real `far` is r^T P^m c, r = Phi_delta * (V_delta^T far). The
        periods go in blocks of B = `_block_size(horizon, 2N)`: the rows
        r^T P^b, b < B, and P^B come from log2(B) squarings. For real lab
        columns `tracked`, the same squarings double the rows R Phi_delta P^b,
        R = tracked^T V_delta, in their own products, so the far rows and P^B
        do not depend on them; they come as a (B, len(tracked), 2N) array
        whose row b gives the tracked amplitudes after half-period 2b + 1 of
        a block. Without `tracked` they are None.
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
        pops = None
        if tracked is not None:
            pops = ((tracked.T @ v_d) * phase_d)[None]
        block = _block_size(horizon, len(c))
        while len(rows) < block:
            if pops is not None:
                pops = np.concatenate([pops, pops @ power])
            rows = np.vstack([rows, rows @ power])  # r^T P^b for b < 2 len(rows)
            power = power @ power
        return c, rows, power, pops

    def driven_fidelities(
        self, psi: np.ndarray, far: np.ndarray, half: float, horizon: int | None = None
    ):
        """|<far| psi(m)>|^2 for m = 0, 1, 2, ..., without end, where psi(m) is
        psi after 2m + 1 half-periods `half` of the square wave that starts on
        u = delta and alternates with u = 0; `far` is real. These are the
        blocks of `_fidelity_blocks` on `_search`'s rows, one float at a time,
        so memory does not grow with m; without a horizon, B = 1.
        """
        c, rows, power, _ = self._search(psi, far, half, horizon)
        for fidelities in _fidelity_blocks(c, rows, power):
            yield from fidelities.tolist()

    def _replay(self, c, power, pops, half, periods):
        """The search from `c` once more, up to its period `periods`: the
        tracked amplitudes after each of its driven half-periods, as rows,
        and the lab state after the last, V_delta Phi_delta P^(periods-1) c.
        Whole blocks go by P^B as in the search, so its iterates repeat bit
        for bit; the rest of the last block goes one period at a time through
        M, P c = M^T (Phi_0 * (M (Phi_delta * c))), so no complex (2N)^2
        matrix is held beside P^B.
        """
        w_d, v_d = self._decomposition(self.delta)
        w_0, _ = self._decomposition(0.0)
        m = self._overlap
        phase_d, phase_0 = np.exp(-1j * w_d * half), np.exp(-1j * w_0 * half)
        flat = pops.reshape(-1, len(c))
        whole, rest = divmod(periods - 1, len(pops))
        amplitudes = [flat @ c]
        for _ in range(whole):
            c = power @ c
            amplitudes.append(flat @ c)
        for _ in range(rest):
            c = _real_matvec(m.T, phase_0 * _real_matvec(m, phase_d * c))
        rows = np.concatenate(amplitudes).reshape(-1, pops.shape[1])
        return rows[:periods], _real_matvec(v_d, phase_d * c)


def _fidelity_blocks(c, rows, power):
    """|r^T P^m c|^2 for m = 0, 1, 2, ..., without end, one array of the
    B = len(rows) periods of each giant step c <- P^B c."""
    while True:
        yield np.abs(rows @ c) ** 2
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
    one-period operator (the curve of `SegmentPropagator.driven_fidelities`,
    a block of periods at a time); the first strict maximum wins. Nothing is
    stepped: the reported fidelities, the populations and each edge's final
    state come from the search's iterates. They differ from stepping the
    pulse by the rounding of the one-period operator, which adds up over the
    kept periods: within 1e-12 up to 1000 segments (1.2e-13 on the
    benchmark's transfers), about 1e-11 at 95,511.

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
    and `threshold`. Per edge, `_fidelity_blocks` ranks the counts a block of
    periods at a time; then `_replay` repeats the search's iterates up to the
    kept count, and they give the populations of the path levels and the next
    edge's start. The edge fidelity is the search's own maximum."""
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
        best_fid, periods = float(abs(np.vdot(far, psi)) ** 2), 0
        # free evolution cannot change the fidelity to an H0 eigenstate, so
        # only counts ending on a driven half-period are ranked. The first
        # strict maximum wins: argmax takes a block's first maximum, and >
        # keeps an equal one from an earlier block
        coeffs, rows, power, pops = prop._search(psi, far, half, max_periods, level_vecs)
        blocks = _fidelity_blocks(coeffs, rows, power)
        for first in range(0, max_periods, len(rows)):
            fids = next(blocks)[: max_periods - first]
            best = int(fids.argmax())
            if fids[best] > best_fid:
                best_fid, periods = float(fids[best]), first + best + 1
        count = 2 * periods - 1 if periods else 0
        if count:
            amplitudes, psi = prop._replay(coeffs, power, pops, half, periods)
            # a running sum adds the half-periods in order, as t += half would
            times = np.cumsum([t, *itertools.repeat(half, count)])[1:].tolist()
            # a free half-period leaves the populations of H0 eigenstates as
            # the driven one before it left them
            probs = np.repeat(np.abs(amplitudes) ** 2, 2, axis=0)[:count].tolist()
            populations.extend({"t": x, "p": p} for x, p in zip(times, probs))
            segments.extend((half, delta if s % 2 == 0 else 0.0) for s in range(count))
            t = times[-1]
        edge_reports.append(
            {
                "edge": [a, c],
                "half_period": half,
                "n_segments": count,
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
    spectrum: Spectrum | None = None,
) -> TransferReport:
    """Full pipeline: diagonalize, graph, certify, design; the design sweep
    returns the report, populations included, so nothing is propagated again.
    The default window is `default_window` cut to the trusted levels, as in the CLI.
    `spectrum` is `labelled_spectrum(params)` where the caller already holds it."""
    if source.s != target.s and params.g == 0:
        raise TransferError(
            "diagonalize", "cross-spin targets are unreachable at g = 0"
        )
    if spectrum is None:
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
