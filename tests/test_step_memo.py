"""`SegmentPropagator.step` keeps no state between calls beyond each
amplitude's eigendecomposition, so a step is bit-equal to the same step on a
fresh propagator, whatever steps came before it."""

import numpy as np
import pytest

from spinboson import ModelParams, build_control, build_rabi
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
