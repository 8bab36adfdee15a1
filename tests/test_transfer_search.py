"""The segment-count search of a transfer against stepping every count.

`_sweep` ranks each edge's counts on the one-period operator in the driven
eigenbasis, and takes the kept count's fidelity and state from the search's
iterates. The property below steps every count with `SegmentPropagator.step`
instead and requires the same fidelity curve, a reported fidelity that is the
best of it and that of the stepped state, and counts that are 0 or odd.
"""

import itertools
import tracemalloc

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
from spinboson.control import SegmentPropagator, labelled_spectrum  # noqa: E402

SEARCH_TOL = 1e-10
ITERATE_TOL = 1e-12
SOURCE = BasisIndex(0, -1)
TARGETS = {"ladder": BasisIndex(1, -1), "cross-spin": BasisIndex(0, 1)}


def fidelity(far, psi):
    return float(abs(np.vdot(far, psi)) ** 2)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(4, 20),
    g=st.one_of(st.floats(-0.5, -0.01), st.floats(0.01, 0.5)),
    # clear of the near-tie at Omega = omega, where the branch tracker refuses
    Omega=st.one_of(st.floats(0.3, 0.9), st.floats(1.1, 3.0)),
    delta=st.floats(0.005, 0.1),
    target=st.sampled_from(sorted(TARGETS)),
    max_periods=st.integers(1, 200),
)
def test_search_ranks_the_stepped_curve(n_fock, g, Omega, delta, target, max_periods):
    params = ModelParams(1.0, Omega, g, n_fock)
    spec = labelled_spectrum(params)
    try:
        report = transfer_experiment(
            params,
            SOURCE,
            TARGETS[target],
            delta,
            window=spec.trust_cutoff,
            max_periods=max_periods,
        )
    except TransferError as exc:
        # the trusted levels hold no certified path to the target: no search ran
        if exc.stage == "certify" or "no path" in str(exc):
            reject()
        raise

    prop = SegmentPropagator(build_rabi(params), build_control(params), delta)
    psi = spec.eigenvectors[:, spec.level_of(SOURCE)].astype(complex)
    for edge in report.edges:
        far = spec.eigenvectors[:, edge["edge"][1]]
        half = edge["half_period"]
        cur, states = psi, []
        for seg in range(2 * max_periods):
            cur = prop.step(cur, half, delta if seg % 2 == 0 else 0.0)
            states.append(cur)
        stepped = [fidelity(far, state) for state in states[::2]]
        predicted = list(itertools.islice(prop.driven_fidelities(psi, far, half), max_periods))
        assert np.max(np.abs(np.subtract(predicted, stepped))) <= SEARCH_TOL

        count = edge["n_segments"]
        assert count == 0 or count % 2 == 1
        assert abs(edge["fidelity"] - max(fidelity(far, psi), *stepped)) <= SEARCH_TOL
        if count:
            psi = states[count - 1]
        # the reported fidelity, from the search's iterates, is that of the
        # stepped state to roundoff
        assert abs(edge["fidelity"] - fidelity(far, psi)) <= ITERATE_TOL


class _Stepped(Exception):
    pass


def _search_peak(monkeypatch, max_periods):
    """Peak traced bytes of a transfer up to its population pass, which comes
    after the edge's whole search."""

    def stop(self, *args):
        raise _Stepped

    params = ModelParams(1.0, 1.05, 0.2, 6)
    monkeypatch.setattr(SegmentPropagator, "_replay", stop)
    tracemalloc.start()
    try:
        with pytest.raises(_Stepped):
            transfer_experiment(
                params, SOURCE, TARGETS["ladder"], 0.02, window=2, max_periods=max_periods
            )
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.undo()


def test_search_memory_does_not_grow_with_max_periods(monkeypatch):
    # a table of per-count amplitudes would take 50,000 * 2 * 2 * 16 bytes
    # (3.2 MB) here; the search holds one period operator and one state
    assert _search_peak(monkeypatch, 50_000) - _search_peak(monkeypatch, 500) <= 64 * 1024
