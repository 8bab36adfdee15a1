"""The padded-residual certificate decides a window's trust as the convergence
scan at [N, 2N] does, and the scan runs only where its count is read."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from spinboson import ModelParams, convergence_scan, spectral  # noqa: E402
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
    # Omega just off omega = 1 is where continuation from g = 0 refuses
    assume(Omega == 1.0 or abs(Omega - 1.0) > 0.01)
    # powers of two scale every energy exactly; far from 1 the scan's
    # absolute tol and the certificate's rounding bound decide differently
    s = 2.0**k
    p = ModelParams(s, Omega * s, g * s, n_fock)
    count = convergence_scan(p, [n_fock, 2 * n_fock]).trust_cutoff
    windows = sorted({1, n_fock // 4, 12, count, count + 1, 2 * n_fock})
    for spectrum_of in (spectral.rabi_spectrum, spectral.labelled_spectrum):
        try:
            spec = spectrum_of(p)
        except spectral.GridRefinementError:
            continue  # the tracker's refusal near a tie, at a tiny g: no spectrum
        for w in windows:
            if w >= 1 and spectral._padded_certificate(spec, w):
                assert w <= count
        for w in windows:
            assert spec.trusts(w) == (w <= count)
        assert spec.trust_cutoff == count


def test_certificate_covers_the_benchmark_windows():
    # the wide-window and certify-sweep chains, and the transfer's default window
    for n_fock, window in ((160, 40), (256, 12), (128, 32), (64, 16)):
        spec = spectral.labelled_spectrum(ModelParams(1.0, 1.05, 0.2, n_fock))
        assert spectral._padded_certificate(spec, window)


def test_a_repeated_eigenpair_is_not_counted_twice():
    # Kato's intervals hold one eigenvalue each only while they are disjoint:
    # plant level 0's eigenpair as level 1 too, in its chain
    spec = spectral.labelled_spectrum(ModelParams(1.0, 1.05, 0.2, 32))
    assert spectral._padded_certificate(spec, 2)
    w, v, chains = spec.eigenvalues.copy(), spec.eigenvectors.copy(), spec.chains.copy()
    w[1], v[:, 1], chains[1] = w[0], v[:, 0], chains[0]
    planted = spectral.Spectrum(spec.params, w, v, {}, [], chains=chains)
    assert not spectral._padded_certificate(planted, 2)


@pytest.mark.parametrize(
    "n_fock, Omega, g, scale",
    [(64, 1.05, 0.2, 2.0**20), (16, 1.05, 2.0, 1.0), (32, 1.0, 0.0, 1.0)],
    ids=["large-omega", "strong-coupling", "tied-at-zero-coupling"],
)
def test_declines_fall_back_to_the_scan(monkeypatch, n_fock, Omega, g, scale):
    p = ModelParams(scale, Omega * scale, g * scale, n_fock)
    calls = count_scans(monkeypatch)
    spec = spectral.labelled_spectrum(p)
    assert not spectral._padded_certificate(spec, 2)
    assert spec.trusts(2) == (2 <= spec.trust_cutoff)
    assert len(calls) == 1


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
    calls = count_scans(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, "transfer", {"model": model(128, 0.2), "transfer": TRANSFER}) == 0
    assert sorted(calls) == [[16, 32], [32, 64]]


@pytest.mark.parametrize(
    "command, cfg",
    [
        ("chain", {"model": model(16, 2.0), "resonance": {"window": 4}}),
        ("chain", {"model": model(16, 0.2), "resonance": {"window": 22}}),
        ("transfer", {"model": model(8, 0.2), "transfer": {**TRANSFER, "window": 10}}),
    ],
)
def test_a_refused_window_scans_once(tmp_path, monkeypatch, capsys, command, cfg):
    calls = count_scans(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, command, cfg) == EXIT_INPUT
    assert len(calls) == 1
    assert "levels the convergence scan trusts" in capsys.readouterr().err


def test_a_default_window_is_cut_by_the_count(tmp_path, monkeypatch):
    # the default n_fock // 4 = 4 levels, of which the scan trusts 2
    calls = count_scans(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert run(tmp_path, "chain", {"model": model(16, 2.0)}) == EXIT_OK
    assert len(calls) == 1
    graph = json.loads((tmp_path / "chain.json").read_text())["graph"]
    assert len(graph["nodes"]) == 2
