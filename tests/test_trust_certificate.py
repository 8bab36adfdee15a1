"""One trust mechanism: each window's trust is the enclosure count
(`spectral._enclosed_levels`), the same at every power-of-two scale, and the
convergence scan runs for the `convergence` command alone. The names of the
tests below date from the padded-residual certificate and the [N, 2N] scan
that the enclosure replaced; each states what it checks now."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson import ModelParams, spectral  # noqa: E402
from spinboson.cli import EXIT_INPUT, EXIT_OK, main  # noqa: E402

TRANSFER = {"source": {"n": 0, "s": -1}, "target": {"n": 1, "s": -1}, "delta": 0.02}


def model(n_fock: int, g: float) -> dict:
    return {"omega": 1.0, "Omega": 1.05, "g": g, "n_fock": n_fock}


def run(tmp_path, command: str, cfg: dict) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return main([command, "--config", str(path)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    n_fock=st.integers(2, 64),
    Omega=st.sampled_from([1.0, 3.0, 5.0]) | st.floats(0.2, 6.0),
    g=st.floats(-2.0, 2.0),
    k=st.integers(-40, 30),
)
def test_trusts_equals_the_scan(n_fock, Omega, g, k):
    """Every window's trust is the enclosure count at omega = 1, equal by ==
    at every power-of-two scale, for both spectra."""
    # Omega just off omega = 1 is where continuation from g = 0 refuses
    assume(Omega == 1.0 or abs(Omega - 1.0) > 0.01)
    s = 2.0**k  # powers of two scale every energy exactly
    p = ModelParams(s, Omega * s, g * s, n_fock)
    count = spectral.trusted_levels(ModelParams(1.0, Omega, g, n_fock))
    windows = sorted({1, n_fock // 4, 12, count, count + 1, 2 * n_fock})
    for spectrum_of in (spectral.rabi_spectrum, spectral.labelled_spectrum):
        try:
            spec = spectrum_of(p)
        except spectral.GridRefinementError:
            continue  # the tracker's refusal near a tie, at a tiny g: no spectrum
        for w in windows:
            assert spec.trusts(w) == (w <= count)
            assert spec.trusted_window(w) == min(w, count)
        assert spec.trust_cutoff == count


def test_certificate_covers_the_benchmark_windows():
    # the wide-window and certify-sweep chains, and the transfer's default
    # window: the enclosure trusts each
    for n_fock, window, count in ((160, 40, 299), (256, 12, 488), (128, 32, 236), (64, 16, 112)):
        spec = spectral.labelled_spectrum(ModelParams(1.0, 1.05, 0.2, n_fock))
        assert spec.trust_cutoff == count
        assert spec.trusts(window)


def test_a_repeated_eigenpair_is_not_counted_twice():
    # plant level 0's eigenpair as level 1 too: theta_1 then lies below the
    # lower bound of the second level, so it is no Ritz value and ends the count
    spec = spectral.labelled_spectrum(ModelParams(1.0, 1.05, 0.2, 32))
    assert spec.trusts(2)
    w, v = spec.eigenvalues.copy(), spec.eigenvectors.copy()
    w[1], v[:, 1] = w[0], v[:, 0]
    planted = spectral.Spectrum(spec.params, w, v, {}, [])
    assert planted.trust_cutoff == 1
    assert not planted.trusts(2)


@pytest.mark.parametrize(
    "n_fock, Omega, g, scale, count",
    [(64, 1.05, 0.2, 2.0**20, 112), (16, 1.05, 2.0, 1.0, 0), (32, 1.0, 0.0, 1.0, 64)],
    ids=["large-omega", "strong-coupling", "tied-at-zero-coupling"],
)
def test_declines_fall_back_to_the_scan(monkeypatch, n_fock, Omega, g, scale, count):
    """Where the padded-residual certificate declined and the scan decided,
    the enclosure decides alone: a large omega counts as omega = 1 does, and
    a tie at g = 0 needs no case."""
    p = ModelParams(scale, Omega * scale, g * scale, n_fock)
    calls = count_scans(monkeypatch)
    spec = spectral.labelled_spectrum(p)
    assert spec.trust_cutoff == count
    assert spec.trusts(2) == (2 <= count)
    assert calls == []


def count_scans(monkeypatch) -> list:
    """The sizes of every convergence scan run from here on."""
    calls = []
    real_scan = spectral.convergence_scan

    def counting_scan(params, sizes, *args, **kwargs):
        calls.append(list(sizes))
        return real_scan(params, sizes, *args, **kwargs)

    monkeypatch.setattr(spectral, "convergence_scan", counting_scan)
    return calls


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("spectrum", {"model": model(64, 0.2)}),
        ("chain", {"model": model(64, 0.2)}),
        ("resonance", {"model": model(64, 0.2), "resonance": {"g_samples": [0.2, 0.4]}}),
    ],
)
def test_window_checks_run_no_scan(tmp_path, monkeypatch, command, cfg):
    calls = count_scans(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, command, cfg) == EXIT_OK
    assert calls == []


def test_transfer_scans_only_its_working_truncations(tmp_path, monkeypatch):
    # its working truncations (16 and 32) are checked by their enclosure counts
    calls = count_scans(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, "transfer", {"model": model(128, 0.2), "transfer": TRANSFER}) == 0
    assert calls == []


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("chain", {"model": model(16, 2.0), "resonance": {"window": 4}}),
        ("chain", {"model": model(16, 0.2), "resonance": {"window": 22}}),
        ("transfer", {"model": model(8, 0.2), "transfer": {**TRANSFER, "window": 10}}),
    ],
)
def test_a_refused_window_scans_once(tmp_path, monkeypatch, capsys, command, cfg):
    # refused by the enclosure count (0, 20 and 6 levels), with no scan
    calls = count_scans(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, command, cfg) == EXIT_INPUT
    assert calls == []
    assert "the truncation encloses" in capsys.readouterr().err


def test_a_default_window_is_cut_by_the_count(tmp_path, monkeypatch, capsys):
    # the default n_fock // 4 = 4 levels, cut to the 0 that the enclosure
    # trusts at g = 2, is refused
    calls = count_scans(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, "chain", {"model": model(16, 2.0)}) == EXIT_INPUT
    assert calls == []
    assert "window 0 must be >= 2 and within the 0 levels" in capsys.readouterr().err
    assert not (tmp_path / "chain.json").exists()
