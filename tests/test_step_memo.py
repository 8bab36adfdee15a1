"""`SegmentPropagator.step` keeps the phase vector of each amplitude's last
duration. The memo hands back the array it would recompute, so a step is
bit-equal to the same step on a fresh propagator, and the memo never holds
more than one entry per amplitude."""

import numpy as np
import pytest

from spinboson import ModelParams, Pulse, StateVector, build_control, build_rabi
from spinboson import control
from spinboson.control import SegmentPropagator

PARAMS = ModelParams(1.0, 1.05, 0.2, 6)
DELTA = 0.02


def operators():
    return build_rabi(PARAMS), build_control(PARAMS)


def ground(h0, b):
    return SegmentPropagator(h0, b, DELTA)._decomposition(0.0)[1][:, 0].astype(complex)


@pytest.mark.parametrize("alternating", [True, False], ids=["alternating", "distinct"])
def test_step_equals_a_fresh_propagator(alternating):
    h0, b = operators()
    rng = np.random.default_rng(7)
    durations = [0.7, 1.3] if alternating else list(rng.uniform(0.1, 3.0, size=40))
    prop = SegmentPropagator(h0, b, DELTA)
    psi = ground(h0, b)
    for k in range(40):
        duration = durations[k % len(durations)]
        amplitude = DELTA if k % 2 == 0 else 0.0
        out = prop.step(psi, duration, amplitude)
        fresh = SegmentPropagator(h0, b, DELTA).step(psi, duration, amplitude)
        assert np.array_equal(out, fresh)
        psi = out


def test_memo_holds_one_entry_per_amplitude(monkeypatch):
    made = []

    class Recorded(SegmentPropagator):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(control, "SegmentPropagator", Recorded)
    h0, b = operators()
    rng = np.random.default_rng(11)
    amplitudes = [0.0, DELTA / 2, DELTA]
    segments = [
        (float(d), amplitudes[int(k)])
        for d, k in zip(rng.uniform(0.1, 2.0, size=1000), rng.integers(0, 3, size=1000))
    ]
    control.propagate(h0, b, Pulse(segments, DELTA), StateVector(ground(h0, b), h0.basis))

    (prop,) = made
    assert set(prop._phases) == set(amplitudes)
    for amplitude, (duration, phase) in prop._phases.items():
        last = [d for d, a in segments if a == amplitude][-1]
        assert duration == last
        w = prop._decomposition(amplitude)[0]
        assert np.array_equal(phase, np.exp(-1j * w * last))
