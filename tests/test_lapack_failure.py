"""A chain solve that LAPACK reports as not converged is a certification
failure (exit 1) that keeps LAPACK's error as its cause, not bad input."""

import json

import numpy as np
import pytest

from spinboson import SolverError, spectral
from spinboson.cli import EXIT_CERTIFICATION, main

MODEL = {"omega": 1.0, "Omega": 1.05, "g": 0.2, "n_fock": 16}


class UnconvergedStevd:
    """SciPy's LAPACK extension, except that dstevd reports info = 1."""

    def __init__(self, real):
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)

    def dstevd(self, d, e, compute_v=1):
        w, v, _ = self._real.dstevd(d, e, compute_v=compute_v)
        return w, v, 1


@pytest.fixture
def unconverged(monkeypatch):
    monkeypatch.setattr(spectral, "_flapack", UnconvergedStevd(spectral._flapack))


def test_the_error_keeps_its_cause(unconverged):
    d, e = np.arange(4.0), np.ones(3)
    for solve in (spectral.eigh_tridiagonal, spectral.eigvalsh_tridiagonal):
        with pytest.raises(SolverError, match=r"LAPACK info=1") as caught:
            solve(d, e)
        assert isinstance(caught.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("command", ["spectrum", "chain", "convergence"])
def test_cli_exits_with_a_certification_failure(
    tmp_path, monkeypatch, capsys, unconverged, command
):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"model": MODEL}))
    assert main([command, "--config", str(path)]) == EXIT_CERTIFICATION
    err = capsys.readouterr().err
    assert err.startswith("certification failure:") and "did not converge" in err
