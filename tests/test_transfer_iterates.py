"""A transfer's outputs come from its search's iterates, not from stepping.

`_sweep` ranks each edge's counts on the one-period operator, then
`SegmentPropagator._replay` repeats the search's iterates up to the kept count
for the populations and the edge's final state. The property below steps the
designed pulse with `SegmentPropagator.step`, keeps that reference here, and
requires the populations, each edge fidelity and each edge's final state to
agree with it to `iterate_tol`, the times to equal the loop sum bit for bit,
and the kept counts to equal those of the per-period search (B = 1).
`max_periods` is drawn as in `test_blocked_search.py`: at small fixed values,
at and just past each horizon 2B (2N + B) where B doubles, and above
4 (2N)^2, where B is capped by 2N. The target (1, +1) is reached over two
edges, so the second edge starts from the first one's iterates.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, reject, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson import (  # noqa: E402
    BasisIndex,
    ModelParams,
    TransferError,
    build_control,
    build_rabi,
    transfer_experiment,
)
from spinboson import control  # noqa: E402
from spinboson.control import SegmentPropagator, labelled_spectrum  # noqa: E402
from test_blocked_search import BLOCK_EDGES  # noqa: E402
from test_transfer_search import ITERATE_TOL, fidelity  # noqa: E402

SOURCE = BasisIndex(0, -1)
TARGETS = {
    "ladder": BasisIndex(1, -1),
    "cross-spin": BasisIndex(0, 1),
    "two-edge": BasisIndex(1, 1),
}


def iterate_tol(segments: int) -> float:
    """How far the iterates may sit from stepping after `segments` half-periods.

    Stepping rounds differently in every segment, so its error stays near
    1e-14. The iterates apply one rounded period operator P over and over,
    so its rounding adds up: about 2e-16 per segment, at most 3.5e-16 in 100
    random draws up to 10,417 segments (against extended precision, the
    iterates carry nearly all of the difference). So ITERATE_TOL up to 1000
    segments, then 1e-15 per segment.
    """
    return ITERATE_TOL * max(1.0, segments / 1000)


def stepped_reference(params, spec, report, delta):
    """The report's pulse stepped edge by edge: the population rows (t, p),
    each edge's fidelity to its far level and each edge's final state."""
    prop = SegmentPropagator(build_rabi(params), build_control(params), delta)
    tracked = spec.eigenvectors[:, report.tracked_levels]
    psi = spec.eigenvectors[:, spec.level_of(SOURCE)].astype(complex)
    rows, fidelities, states, t = [], [], [], 0.0
    for edge in report.edges:
        half = edge["half_period"]
        for seg in range(edge["n_segments"]):
            psi = prop.step(psi, half, delta if seg % 2 == 0 else 0.0)
            t += half
            rows.append((t, np.abs(tracked.T @ psi) ** 2))
        fidelities.append(fidelity(spec.eigenvectors[:, edge["edge"][1]], psi))
        states.append(psi)
    return rows, fidelities, states


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(2, 20),
    # clear of the near-tie at Omega = omega, where the branch tracker refuses
    Omega=st.one_of(st.floats(0.3, 0.9), st.floats(1.1, 3.0)),
    g=st.one_of(st.floats(-0.5, -0.01), st.floats(0.01, 0.5)),
    delta=st.floats(0.005, 0.1),
    target=st.sampled_from(sorted(TARGETS)),
    data=st.data(),
)
def test_transfer_outputs_are_the_stepped_ones(n_fock, Omega, g, delta, target, data):
    params = ModelParams(1.0, Omega, g, n_fock)
    dim = params.dim
    doublings = [2 * b * (dim + b) for b in (1, 2, 4, 8, 16) if 2 * b <= dim]
    max_periods = data.draw(
        st.one_of(
            st.sampled_from(BLOCK_EDGES),
            st.builds(int.__add__, st.sampled_from(doublings), st.integers(0, 1)),
            st.integers(4 * dim**2 + 1, 4 * dim**2 + 64),
        ),
        label="max_periods",
    )
    spec = labelled_spectrum(params)
    replayed = []
    replay = SegmentPropagator._replay

    def recording(self, *args):
        out = replay(self, *args)
        replayed.append(out[1])
        return out

    def run():
        return transfer_experiment(
            params,
            SOURCE,
            TARGETS[target],
            delta,
            window=spec.trust_cutoff,
            max_periods=max_periods,
        )

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SegmentPropagator, "_replay", recording)
        try:
            report = run()
        except TransferError as exc:
            # no trusted level, or no certified path to the target: no search ran
            if exc.stage in ("graph", "certify") or "no path" in str(exc):
                reject()
            raise
        patch.setattr(SegmentPropagator, "_replay", replay)
        patch.setattr(control, "_block_size", lambda horizon, dim: 1)
        single = run()

    assert [e["n_segments"] for e in single.edges] == [e["n_segments"] for e in report.edges]
    if target == "two-edge":
        assert len(report.edges) == 2

    rows, fidelities, states = stepped_reference(params, spec, report, delta)
    tol = iterate_tol(len(rows))
    assert [row["t"] for row in report.populations] == [t for t, _ in rows]
    if rows:
        designed = np.array([row["p"] for row in report.populations])
        assert np.max(np.abs(designed - np.array([p for _, p in rows]))) <= tol
    for edge, stepped in zip(report.edges, fidelities):
        assert abs(edge["fidelity"] - stepped) <= tol
    # `_replay` runs once per edge that keeps a segment, and returns its final state
    kept = [state for edge, state in zip(report.edges, states) if edge["n_segments"]]
    assert len(replayed) == len(kept)
    for state, stepped in zip(replayed, kept):
        assert np.max(np.abs(state - stepped)) <= tol
    far = spec.eigenvectors[:, spec.level_of(TARGETS[target])]
    final = states[-1] if states else spec.eigenvectors[:, spec.level_of(SOURCE)]
    assert abs(report.fidelity - fidelity(far, final)) <= tol
