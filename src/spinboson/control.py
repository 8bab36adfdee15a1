"""Piecewise-constant bilinear propagation and resonant state transfer.

Each constant-control segment is propagated exactly through the checked
eigendecomposition of H0 + u*B (`dense_eigh`, cached per distinct amplitude),
so there is no time-integration error. A transfer takes H0's (u = 0) from its
labelled spectrum, whose eigenpairs come from the two certified chain solves,
and solves only u = delta/2 and u = delta. The eigenbasis is real, so a step
runs in real arithmetic on the (re, im) pair of the state: two real matrix
products with the complex phase applied between them. Transfers are driven
bang-bang between u = 0 and u = delta at the gap frequency of the mean
Hamiltonian H0 + (delta/2)*B, which removes the static Stark detuning of the
drive. The drive is periodic, so each edge's segment count is searched on
its one-period (Floquet) operator P in the driven eigenbasis, B periods per
matrix-vector product with P^B (baby-step/giant-step). B is a power of two
<= 2N, so the B precomputed rows never outgrow P, and it doubles only while
one more squaring, priced at GEMM speed, costs less than the products it
saves over max_periods. The same squarings build the one row set, the path
levels' amplitudes; the far level's column ranks the counts, and the
populations, the edge fidelity (its far population, bit for bit) and the next
edge's start state come from the same iterates, so a transfer steps nothing.
A transfer between converged low levels does not need the full truncation:
`transfer_experiment` searches on the smallest working Galerkin truncation
that a transfer on twice it confirms, and reports that margin.
"""

from __future__ import annotations

import functools
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
# A complex (2N)^2 GEMM's speed per flop over a GEMV's, for `_block_size`.
# Measured 2.4-9 over 2N = 8..2048 (OpenBLAS 0.3.31 on one thread, x86-64):
# about 5 up to 2N = 32, 2.4-2.6 at 128-256, 7-9 at 1024-2048. A transfer
# searches on a working truncation (`_working_transfer`), so 2N >= 1024,
# where 4 is low, is off the default path unless no truncation certifies it.
GEMM_SPEEDUP = 4
# The smallest working truncation a transfer searches on, and how far (in
# fidelity and population, both dimensionless) the transfer on twice that
# truncation may move and still certify it; see `_working_transfer`.
GALERKIN_FLOOR = 16
GALERKIN_TOL = 1e-9
# How far a search's fidelities and populations may sit from the exact ones
# of its truncation after n half-periods: FLOOR + PER_SEGMENT * n, the bound
# `tests/test_transfer_precision.py` checks against a 30-digit reference
# (the iterates apply one rounded period operator, so their error adds up).
# Against that reference a search at M = 16 was off by up to 1.0e-15 per
# segment and one at n_fock 72 by 3.7e-15, so a working truncation's drift
# takes the bound twice (`_rounding`): once for each search.
ROUNDING_FLOOR = 1e-14
ROUNDING_PER_SEGMENT = 2e-15


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
    of one real matrix product, with the phases exp(-i w duration) applied
    between them. A square wave between 0 and delta is not stepped: `_search`
    sets up its one-period operator and rows, `_fidelity_blocks` gives the
    populations that rank its segment counts and `_replay` rebuilds the kept
    count's populations and state from them.
    """

    def __init__(
        self,
        h0: LabeledOperator,
        b: LabeledOperator,
        delta: float,
        free: tuple[np.ndarray, np.ndarray] | None = None,
    ):
        """`free`, if given, is H0's checked eigendecomposition (eigenvalues
        ascending, eigenvectors as columns), used for u = 0 in place of a
        dense solve."""
        if h0.dim != b.dim:
            raise ValueError(f"dimension mismatch: H0 is {h0.dim}, B is {b.dim}")
        self.h0 = h0.entries
        self.b = b.entries
        self.delta = delta
        self._cache: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        if free is not None:
            self._cache[0.0] = free

    def _decomposition(self, amplitude: float) -> tuple[np.ndarray, np.ndarray]:
        if amplitude not in self._cache:
            if not (0 <= amplitude <= self.delta):
                raise ValueError(f"amplitude {amplitude} outside [0, {self.delta}]")
            self._cache[amplitude] = dense_eigh(self.h0 + amplitude * self.b, "H0 + u*B")
        return self._cache[amplitude]

    def step(self, psi: np.ndarray, duration: float, amplitude: float) -> np.ndarray:
        """exp(-i (H0 + u B) duration) psi as a new contiguous complex vector."""
        w, v = self._decomposition(amplitude)
        return _real_matvec(v, _real_matvec(v.T, psi) * np.exp(-1j * w * duration))

    @cached_property
    def _overlap(self) -> np.ndarray:
        """V_0^T V_delta: the free eigenbasis against the driven one."""
        return self._decomposition(0.0)[1].T @ self._decomposition(self.delta)[1]

    def _search(self, psi, tracked, half, horizon):
        """The start of the blocked search over the square wave of half-period
        `half` that starts on u = delta: (c, rows, P^B).

        No lab-basis state is built. In the driven eigenbasis one period is
        P = M^T Phi_0 M Phi_delta, with M = V_0^T V_delta and
        Phi_u = exp(-i w_u half). With c = V_delta^T psi, the state after
        2m + 1 half-periods is V_delta Phi_delta P^m c, so its amplitudes on
        the real lab columns `tracked` are R Phi_delta P^m c, R = tracked^T
        V_delta. The periods go in blocks of B = `_block_size(horizon, 2N)`:
        the rows R Phi_delta P^b, b < B, and P^B come from log2(B) squarings,
        as one (B, len(tracked), 2N) array whose row b gives the tracked
        amplitudes after half-period 2b + 1 of a block.
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
        rows = ((tracked.T @ v_d) * phase_d)[None]
        block = _block_size(horizon, len(c))
        while len(rows) < block:
            rows = np.concatenate([rows, rows @ power])  # b < 2 len(rows)
            power = power @ power
        return c, rows, power

    def driven_fidelities(
        self, psi: np.ndarray, far: np.ndarray, half: float, horizon: int | None = None
    ):
        """|<far| psi(m)>|^2 for m = 0, 1, 2, ..., without end, where psi(m) is
        psi after 2m + 1 half-periods `half` of the square wave that starts on
        u = delta and alternates with u = 0; `far` is real. These are the
        blocks of `_fidelity_blocks` with `far` the one tracked column, one
        float at a time, so memory does not grow with m; without a horizon, B = 1.
        """
        c, rows, power = self._search(psi, far[:, None], half, horizon)
        for _, fidelities in _fidelity_blocks(c, rows, power):
            yield from fidelities.ravel().tolist()

    def _replay(self, c, power, rows, half, periods):
        """The search from `c` once more, up to its period `periods`: the
        tracked populations after each of its driven half-periods, as rows,
        and the lab state after the last, V_delta Phi_delta P^(periods-1) c.
        Whole blocks come from `_fidelity_blocks`, as in the search, so its
        populations repeat bit for bit; the rest of the last block goes one
        period at a time through M, P c = M^T (Phi_0 * (M (Phi_delta * c))),
        so no complex (2N)^2 matrix is held beside P^B.
        """
        w_d, v_d = self._decomposition(self.delta)
        w_0, _ = self._decomposition(0.0)
        m = self._overlap
        phase_d, phase_0 = np.exp(-1j * w_d * half), np.exp(-1j * w_0 * half)
        whole, rest = divmod(periods - 1, len(rows))
        populations = []
        for c, block in itertools.islice(_fidelity_blocks(c, rows, power), whole + 1):
            populations.append(block)
        for _ in range(rest):
            c = _real_matvec(m.T, phase_0 * _real_matvec(m, phase_d * c))
        return np.concatenate(populations)[:periods], _real_matvec(v_d, phase_d * c)


def _fidelity_blocks(c, rows, power):
    """(c, |R Phi_delta P^b c|^2 for b < B) for each giant step c <- P^B c,
    without end: the tracked populations as one (B, L) array per block of
    B = len(rows) periods, with the coefficients the block starts from."""
    flat = rows.reshape(-1, len(c))
    while True:
        yield c, (np.abs(flat @ c) ** 2).reshape(rows.shape[:2])
        c = power @ c


def _block_size(horizon: int | None, dim: int) -> int:
    """Periods per giant step of `driven_fidelities`, a power of two B chosen by
    cost in matrix-vector flops: doubling B costs one more squaring of P (dim^3
    complex multiply-adds at GEMM speed, GEMM_SPEEDUP = rho times faster per
    flop) and B more rows (B dim^2), and saves horizon / (2B) giant steps of
    dim^2 each. So B doubles while horizon > 2B (dim / rho + B), and while
    2B <= dim, so the B rows never outgrow P; 1 without a horizon. rho is a
    constant, so B depends on the inputs alone. A giant step's ~5 us of
    interpreter work is left out: it outweighs the dim^2 product only up to
    dim ~ 64, where B is at or near its cap within the default 2000 periods."""
    block = 1
    while (
        horizon is not None
        and 2 * block <= dim
        and GEMM_SPEEDUP * horizon > 2 * block * (dim + GEMM_SPEEDUP * block)
    ):
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
    return StateVector(psi)


def _witness_path(graph: TransitionGraph, source: int, target: int) -> list[int]:
    """Breadth-first path from source to target over the chain witness;
    [source] when they are one level."""
    if source == target:
        return [source]
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
    and `threshold`: `_sweep_path` along the witness path from source to target."""
    path = _witness_path(graph, spectrum.level_of(source), spectrum.level_of(target))
    return _sweep_path(spectrum, path, delta, max_periods, threshold)


def _sweep_path(spectrum, path, delta, max_periods, threshold):
    """The transfer along `path`, levels of `spectrum`, on that spectrum's
    truncation. Per edge, the far level's column of `_fidelity_blocks` ranks
    the counts a block of periods at a time; then `_replay` repeats the search
    up to the kept count for the path levels' populations, whose last far one
    is the edge fidelity, and the next edge's start."""
    if delta <= 0:
        raise TransferError("design", "delta must be positive")
    if spectrum.params is None:
        raise TransferError("design", "spectrum carries no model parameters")
    h0, b = build_rabi(spectrum.params), build_control(spectrum.params)
    tgt = path[-1]
    psi = spectrum.eigenvectors[:, path[0]].astype(complex)
    levels = sorted(path)
    level_vecs = spectrum.eigenvectors[:, levels]

    # H0's eigenpairs are the spectrum's, from its two certified chain solves
    prop = SegmentPropagator(h0, b, delta, (spectrum.eigenvalues, spectrum.eigenvectors))
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
        coeffs, rows, power = prop._search(psi, level_vecs, half, max_periods)
        blocks = _fidelity_blocks(coeffs, rows, power)
        column = levels.index(c)
        for first in range(0, max_periods, len(rows)):
            fids = next(blocks)[1][: max_periods - first, column]
            best = int(fids.argmax())
            if fids[best] > best_fid:
                best_fid, periods = float(fids[best]), first + best + 1
        count = 2 * periods - 1 if periods else 0
        if count:
            pops, psi = prop._replay(coeffs, power, rows, half, periods)
            # a running sum adds the half-periods in order, as t += half would
            times = np.cumsum([t, *itertools.repeat(half, count)])[1:].tolist()
            # a free half-period leaves the populations of H0 eigenstates as
            # the driven one before it left them
            probs = np.repeat(pops, 2, axis=0)[:count].tolist()
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
    final = StateVector(psi)
    fidelity = final.fidelity(spectrum.eigenvectors[:, tgt].astype(complex))
    # the weight on the untrusted levels, summed term by term so a small one
    # does not drown in 1 - (trusted weight)
    untrusted = _real_matvec(spectrum.eigenvectors[:, spectrum.trust_cutoff :].T, psi)
    return TransferReport(
        spectrum.params,
        spectrum.labels[path[0]],
        spectrum.labels[tgt],
        delta,
        fidelity,
        Pulse(segments, delta),
        edge_reports,
        populations,
        levels,
        spectrum.params.n_fock,
        float(np.sum(np.abs(untrusted) ** 2)),
    )


@dataclass
class TransferReport:
    """Outcome of a full transfer experiment.

    The search ran on the truncation `working_n_fock`, so the populations are
    those of its H0 eigenstates; `edges` and `tracked_levels` name levels of
    `params.n_fock` all the same. `outside_trust` is the final state's weight
    on that truncation's untrusted levels. `drift` is 0 when the search ran on
    `params.n_fock`. Else it is the largest change of an edge fidelity, a
    population or the fidelity from the working truncation M to 2M, plus
    `_rounding` at the last segment, and each edge then carries its own
    "drift" to its last segment: how far the figures may sit from those of
    the search on `params.n_fock` itself. It covers fidelities and
    populations only: the pulse's half-periods come from M's spectrum, so the
    times can move by more, up to the segment count times the half-period's
    change from M to n_fock.
    """

    params: ModelParams
    source: BasisIndex
    target: BasisIndex
    delta: float
    fidelity: float
    pulse: Pulse
    edges: list[dict]
    populations: list[dict]
    tracked_levels: list[int]
    working_n_fock: int
    outside_trust: float
    drift: float = 0.0

    @property
    def total_time(self) -> float:
        return self.pulse.total_duration

    def to_json(self) -> str:
        margin = {"n_fock": self.working_n_fock, "outside_trust": self.outside_trust}
        if self.working_n_fock < self.params.n_fock:
            margin["drift"] = self.drift
        return dump_json(
            {
                "params": self.params.to_dict(),
                "source": {"n": self.source.n, "s": self.source.s},
                "target": {"n": self.target.n, "s": self.target.s},
                "delta": self.delta,
                "fidelity": self.fidelity,
                "total_time": self.total_time,
                "galerkin": margin,
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
    The window, graph, certificate and path are params.n_fock's; the sweep
    runs on a working truncation where one certifies it (`_working_transfer`),
    else on params.n_fock. The default window is `default_window` cut to the
    trusted levels, as in the CLI.
    `spectrum` is `labelled_spectrum(params)` where the caller already holds it;
    one computed at other params is a ValueError, since the transfer takes H0's
    eigenpairs from it."""
    if source.s != target.s and params.g == 0:
        raise TransferError(
            "diagonalize", "cross-spin targets are unreachable at g = 0"
        )
    if spectrum is None:
        spectrum = labelled_spectrum(params)
    elif spectrum.params != params:
        raise ValueError(f"spectrum is computed at {spectrum.params}, not at params {params}")
    if window is None:
        window = spectrum.trusted_window(default_window(params.n_fock))
    try:
        graph = coupling_graph(spectrum, build_control(params), window=window)
    except ValueError as exc:
        raise TransferError("graph", str(exc)) from exc
    cert = certify_chain(graph)
    if not cert.connected:
        raise TransferError(
            "certify", f"graph splits into {len(cert.components)} components"
        )
    path = _witness_path(graph, spectrum.level_of(source), spectrum.level_of(target))
    report = _working_transfer(spectrum, path, delta, max_periods, threshold)
    return report or _sweep_path(spectrum, path, delta, max_periods, threshold)


def _working_sizes(n_fock: int, path: list[int]):
    """The working truncations a transfer along `path` at `n_fock` may search
    on, smallest first: powers of two M >= GALERKIN_FLOOR with 4 M <= n_fock.
    The dense solves and squarings of the searches at M and 2M take 9 M^3
    against n_fock^3 for one at n_fock, but each also carries a few ms that do
    not shrink with the dimension (the labelled spectrum with its trust scan,
    the pulse, the population rows). Timed on the benchmark's transfers, the
    two searches at M = 16 beat one at n_fock from n_fock ~56-60 on (shared
    2-vCPU x86-64, OpenBLAS on one thread), hence 4 M: every n_fock <= 63
    searches on itself. A path of no edge searches nothing, so it stays on
    n_fock too."""
    m = GALERKIN_FLOOR
    while len(path) > 1 and 4 * m <= n_fock:
        yield m
        m *= 2


def _working_transfer(spectrum, path, delta, max_periods, threshold):
    """The transfer along `path`, levels of `spectrum`, searched on the
    smallest working truncation M of `_working_sizes` that certifies it, or
    None when none does (or a search raises `TransferError`).

    The path goes to a truncation by the labels of its levels. M certifies it
    when every path level lies within M's trusted levels and 2M's, and the
    transfer at 2M keeps every `n_segments` and moves no edge fidelity,
    population or the fidelity by more than GALERKIN_TOL. The report is M's,
    with its levels mapped back to `spectrum`'s by label, and its drifts are
    the changes to 2M plus `_rounding` of the segments up to there.
    """
    params, labels = spectrum.params, [spectrum.labels[k] for k in path]

    @functools.cache
    def run(n_fock):
        """The transfer on n_fock in `spectrum`'s levels, or None when n_fock
        does not trust every path level."""
        spec = labelled_spectrum(ModelParams(params.omega, params.Omega, params.g, n_fock))
        rank = {label: k for k, label in spec.labels.items()}
        levels = [rank.get(label, spec.dim) for label in labels]
        if max(levels) >= spec.trust_cutoff:
            return None
        report = _sweep_path(spec, levels, delta, max_periods, threshold)
        full = dict(zip(levels, path))
        report.params = params
        report.edges = [{**e, "edge": [full[k] for k in e["edge"]]} for e in report.edges]
        report.tracked_levels = [full[k] for k in report.tracked_levels]
        return report

    try:
        for m in _working_sizes(params.n_fock, path):
            small = run(m)
            large = None if small is None else run(2 * m)
            drifts = None if large is None else _drifts(small, large)
            if drifts is None:
                continue
            change = max(*drifts, abs(small.fidelity - large.fidelity))
            if change <= GALERKIN_TOL:
                ends = np.cumsum([e["n_segments"] for e in small.edges]).tolist()
                for edge, edge_drift, end in zip(small.edges, drifts, ends):
                    edge["drift"] = edge_drift + _rounding(end)
                small.drift = change + _rounding(ends[-1])
                return small
    except TransferError:
        pass
    return None


def _drifts(small: TransferReport, large: TransferReport) -> list[float] | None:
    """Each edge's largest change of its fidelity or of a population on its
    rows from `small` to `large`, transfers along the same levels; None when
    they track other levels or keep another `n_segments` on some edge."""
    counts = [e["n_segments"] for e in small.edges]
    if (small.tracked_levels, counts) != (
        large.tracked_levels,
        [e["n_segments"] for e in large.edges],
    ):
        return None
    width = len(small.tracked_levels)
    change = np.abs(
        np.reshape([r["p"] for r in small.populations], (-1, width))
        - np.reshape([r["p"] for r in large.populations], (-1, width))
    )
    per_edge = np.split(change, np.cumsum(counts)[:-1])
    return [
        max(abs(a["fidelity"] - b["fidelity"]), float(rows.max(initial=0.0)))
        for a, b, rows in zip(small.edges, large.edges, per_edge)
    ]


def _rounding(segments: int) -> float:
    """The rounding a search on a working truncation and the search on
    n_fock may add up to after `segments` half-periods: each one's bound."""
    return 2 * (ROUNDING_FLOOR + ROUNDING_PER_SEGMENT * segments)
