import contextlib
import io
import json
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson.cli import (  # noqa: E402
    COMMANDS,
    EXIT_CERTIFICATION,
    EXIT_INPUT,
    EXIT_OK,
    main,
)

EXIT_CODES = (EXIT_OK, EXIT_CERTIFICATION, EXIT_INPUT)
TRANSFER = {"source": {"n": 0, "s": -1}, "target": {"n": 1, "s": -1}, "delta": 0.02}


def run(command: str, cfg: dict) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cfg["output_dir"] = os.path.join(tmp, "out")
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        with contextlib.redirect_stderr(io.StringIO()):
            return main([command, "--config", path])


# At omega = Omega a coupling in (0, ~1e-16] is below what the chain solver
# resolves, and branch tracking refuses it (exit 1, pinned below); such
# couplings are left out of the draws.
coupling = st.floats(-1.0, 1.0).filter(lambda g: g == 0 or abs(g) >= 1e-12)
window = st.none() | st.integers(1, 24)
label = st.fixed_dictionaries({"n": st.integers(0, 10), "s": st.sampled_from([-1, 1])})


@st.composite
def model(draw):
    omega = draw(st.floats(0.5, 2.0))
    # Omega just off omega is where continuation from g = 0 refuses
    near_tie = st.floats(0.2, 6.0).filter(lambda x: not 0 < abs(x - omega) <= 0.01)
    return {
        "omega": omega,
        "Omega": draw(st.just(omega) | near_tie),
        "g": draw(coupling),
        "n_fock": draw(st.integers(2, 10)),
    }


@st.composite
def sizes(draw):
    """Two or three increasing truncations."""
    start = draw(st.integers(2, 10))
    steps = draw(st.lists(st.integers(1, 10), min_size=1, max_size=2))
    return [start + sum(steps[:k]) for k in range(len(steps) + 1)]


# Every key of every section with values its kind and bound accept; a key the
# draw leaves out takes its default.
SECTIONS = {
    "grid": {
        "g_min": coupling.filter(lambda g: g <= 0),
        "g_max": coupling.filter(lambda g: g >= 0),
        "n_points": st.integers(1, 9),
    },
    "resonance": {
        "window": window,
        "tol": st.none() | st.floats(1e-12, 0.1),
        "g_samples": st.none() | st.lists(coupling, min_size=1, max_size=3),
        "n_samples": st.integers(1, 3),
        "g_min": coupling,
        "g_max": coupling,
        "floor": st.none() | st.floats(0.0, 0.1),
    },
    "transfer": {
        "source": label,
        "target": label,
        "delta": st.floats(0.005, 0.1),
        "max_periods": st.integers(1, 40),
        "threshold": st.floats(0.0, 1.0),
        "window": window,
    },
    "convergence": {"sizes": sizes(), "tol": st.floats(1e-12, 1e-4)},
    "perturb": {
        "window": st.floats(0.001, 0.05),
        "n_points": st.integers(1, 21),
        "degree": st.integers(4, 8),
        "max_n": st.integers(0, 3),
    },
    "degenerate": {"window": st.integers(0, 16), "j_max": st.integers(0, 5)},
}
config = st.fixed_dictionaries(
    {"model": model()},
    optional={
        "seed": st.integers(0, 5),
        **{name: st.fixed_dictionaries({}, optional=keys) for name, keys in SECTIONS.items()},
    },
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(command=st.sampled_from(sorted(COMMANDS)), cfg=config)
def test_valid_small_configs_end_in_an_exit_code(command, cfg):
    cfg["transfer"] = {**TRANSFER, **cfg.get("transfer", {})}
    assert run(command, cfg) in EXIT_CODES


def test_tied_model_at_a_tiny_coupling_ends_in_an_exit_code():
    cfg = {
        "model": {"omega": 1.0, "Omega": 1.0, "g": 0.0, "n_fock": 2},
        "grid": {"g_max": 1e-17},
    }
    assert run("branches", cfg) in EXIT_CODES
