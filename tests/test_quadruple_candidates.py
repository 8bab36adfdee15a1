"""The omega = Omega quadruple check sweeps the off-diagonal slope differences
and one representative of the diagonal, whose entries are all exactly 0.

At window 60 the n**2 = 3600 differences hold 60 diagonal entries; sweeping
all of them gave 3,872 candidate pairs, 1,770 = 60 * 59 / 2 of them between
two diagonal entries, which the check only dropped. A match of the
representative stands for all n diagonal entries, and the report is still
the brute-force loop's byte for byte when such matches occur.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")  # the reference loop's module needs it

from spinboson import degenerate_quadruple_check  # noqa: E402
from spinboson import resonance  # noqa: E402
import test_resonance_properties  # noqa: E402
from test_resonance_properties import reference_quadruple_check  # noqa: E402


def test_candidates_at_window_60(monkeypatch):
    sweeps = []
    close_pairs = resonance._close_pairs

    def record(keys, reach):
        p, q = close_pairs(keys, reach)
        sweeps.append((keys.size, p.size))
        return p, q

    monkeypatch.setattr(resonance, "_close_pairs", record)
    assert degenerate_quadruple_check(60, 1.0)["n_violations"] == 0
    # 60 * 59 off-diagonal keys and one diagonal representative; no slope
    # difference off the diagonal is within reach of 0, so 3,872 - 1,770
    assert sweeps == [(60 * 59 + 1, 2102)]


@pytest.mark.parametrize("omega", [1e-13, 1.0])
def test_diagonal_matches_expand_to_every_diagonal_entry(monkeypatch, omega):
    # repeated slopes, equal on the two branches of each even j, which share
    # their energy, put off-diagonal differences at exactly x = y = 0
    def repeated(j):
        return 0.5, 0.5 * (-1) ** j

    monkeypatch.setattr(resonance, "degenerate_slopes", repeated)
    monkeypatch.setattr(test_resonance_properties, "degenerate_slopes", repeated)
    for window in range(13):
        got = degenerate_quadruple_check(window, omega)
        assert json.dumps(got) == json.dumps(reference_quadruple_check(window, omega))
    rows = np.array(degenerate_quadruple_check(12, omega)["violations"])
    assert np.any(rows[:, 2] == rows[:, 3])  # (a, b, c, c) rows were produced
