import csv
import json
import math

import pytest

from spinboson.cli import EXIT_CERTIFICATION, EXIT_INPUT, EXIT_OK, main


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def base_config(tmp_path, **model):
    m = {"omega": 1.0, "Omega": 1.1, "g": 0.0, "n_fock": 8}
    m.update(model)
    return {"model": m, "output_dir": str(tmp_path / "out")}


def test_spectrum_command(tmp_path):
    cfg = base_config(tmp_path)
    code = main(["spectrum", "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_OK
    with open(tmp_path / "out" / "spectrum.csv") as f:
        rows = {(r["label_n"], r["label_s"]): r["eigenvalue"] for r in csv.DictReader(f)}
    assert float(rows[("2", "-1")]) == 1.95


def test_chain_two_components_at_zero(tmp_path):
    cfg = base_config(tmp_path, n_fock=64)
    cfg["resonance"] = {"window": 12}
    code = main(["chain", "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_CERTIFICATION
    report = json.loads((tmp_path / "out" / "chain.json").read_text())
    assert not report["certificate"]["connected"]
    assert len(report["certificate"]["components"]) == 2


def test_chain_connected(tmp_path):
    cfg = base_config(tmp_path, Omega=1.05, g=0.2, n_fock=64)
    cfg["resonance"] = {"window": 12}
    code = main(["chain", "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out" / "chain.json").read_text())
    assert report["certificate"]["connected"]


def test_perturb_rejects_degenerate(tmp_path, capsys):
    cfg = base_config(tmp_path, Omega=1.0)
    code = main(["perturb", "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_INPUT
    assert "degenerate" in capsys.readouterr().err


def test_perturb_rejects_near_tie(tmp_path, capsys):
    cfg = base_config(tmp_path, Omega=1.0 + 1e-13)
    code = main(["perturb", "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_INPUT
    assert "degenerate" in capsys.readouterr().err


def test_perturb_output(tmp_path):
    cfg = base_config(tmp_path, n_fock=32)
    cfg["perturb"] = {"max_n": 1}
    code = main(["perturb", "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_OK
    rows = json.loads((tmp_path / "out" / "perturb.json").read_text())
    spot = next(r for r in rows if r["level_n"] == 0 and r["level_s"] == 1)
    assert abs(spot["e2"] - 5.0) < 1e-13
    assert abs(spot["e2_fit"] - 5.0) < 5e-4


def test_degenerate_command(tmp_path):
    cfg = base_config(tmp_path, Omega=1.0, n_fock=32)
    cfg["degenerate"] = {"window": 8, "j_max": 3}
    code = main(["degenerate", "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out" / "degenerate.json").read_text())
    assert report["quadruple_check"]["n_violations"] == 0
    for row in report["slopes"]:
        assert abs(row["slope_numeric"] - row["slope_closed"]) < 1e-6


def test_degenerate_rejects_nondegenerate(tmp_path):
    cfg = base_config(tmp_path)
    code = main(["degenerate", "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_INPUT


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["grdi"] = {}
    code = main(["branches", "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_INPUT
    assert "grdi" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    code = main(["spectrum", "--config", str(tmp_path / "absent.json")])
    assert code == EXIT_INPUT


def test_convergence_command(tmp_path):
    cfg = base_config(tmp_path, g=0.3, n_fock=32)
    cfg["convergence"] = {"sizes": [32, 64, 128]}
    code = main(["convergence", "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out" / "convergence.json").read_text())
    assert report["trust_cutoff"] >= 10
    assert max(report["drifts"][:10]) <= 1e-8


def test_branches_output_and_overrides(tmp_path):
    cfg = base_config(tmp_path)
    cfg["grid"] = {"g_min": -0.02, "g_max": 0.02, "n_points": 5}
    code = main(
        ["branches", "--config", write_config(tmp_path, cfg), "--n-fock", "4"]
    )
    assert code == EXIT_OK
    lines = (tmp_path / "out" / "branches.csv").read_text().strip().splitlines()
    assert len(lines) - 1 == 5 * 8  # 5 grid points, dim 8 after the override


def test_resonance_command(tmp_path):
    cfg = base_config(tmp_path, Omega=1.05, n_fock=64)
    cfg["resonance"] = {"window": 12, "g_samples": [0.1, 0.3], "tol": 1e-9}
    code = main(["resonance", "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out" / "resonance.json").read_text())
    assert report["all_clean"]
    assert len(report["samples"]) == 2


def test_transfer_command(tmp_path):
    cfg = base_config(tmp_path, Omega=1.05, g=0.2, n_fock=32)
    cfg["transfer"] = {
        "source": {"n": 0, "s": -1},
        "target": {"n": 1, "s": -1},
        "delta": 0.02,
        "max_periods": 500,
    }
    code = main(["transfer", "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "out" / "transfer.json").read_text())
    assert report["fidelity"] >= 0.95
    pops = (tmp_path / "out" / "populations.csv").read_text().splitlines()
    assert pops[0].startswith("t,p")


def test_transfer_missing_key(tmp_path, capsys):
    cfg = base_config(tmp_path, Omega=1.05, g=0.2, n_fock=16)
    cfg["transfer"] = {"source": {"n": 0, "s": -1}, "delta": 0.02}
    code = main(["transfer", "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_INPUT
    assert "target" in capsys.readouterr().err


@pytest.mark.parametrize("window", ["12", 12.0])
def test_transfer_window_must_be_integer(tmp_path, capsys, window):
    cfg = base_config(tmp_path, Omega=1.05, g=0.2, n_fock=16)
    cfg["transfer"] = {
        "source": {"n": 0, "s": -1},
        "target": {"n": 1, "s": -1},
        "delta": 0.02,
        "window": window,
    }
    code = main(["transfer", "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_INPUT
    assert "transfer.window" in capsys.readouterr().err


@pytest.mark.parametrize("n", [16, 20])
@pytest.mark.parametrize("key", ["source", "target"])
def test_transfer_label_outside_truncation(tmp_path, capsys, key, n):
    cfg = base_config(tmp_path, Omega=1.05, g=0.2, n_fock=16)
    cfg["transfer"] = {
        "source": {"n": 0, "s": -1},
        "target": {"n": 1, "s": -1},
        "delta": 0.02,
    }
    cfg["transfer"][key] = {"n": n, "s": 1}
    code = main(["transfer", "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_INPUT
    assert f"transfer.{key}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, block, key, value",
    [
        ("resonance", "resonance", "window", 12.7),
        ("resonance", "resonance", "window", "abc"),
        ("chain", "resonance", "window", 12.7),
        ("chain", "resonance", "window", True),
        ("degenerate", "degenerate", "window", 12.7),
        ("degenerate", "degenerate", "window", "12"),
        ("degenerate", "degenerate", "j_max", 2.5),
        ("degenerate", "degenerate", "j_max", "abc"),
    ],
)
def test_integer_keys(tmp_path, capsys, command, block, key, value):
    cfg = base_config(tmp_path, Omega=1.0 if command == "degenerate" else 1.05, n_fock=32)
    cfg[block] = {key: value}
    code = main([command, "--config", write_config(tmp_path, cfg)])
    assert code == EXIT_INPUT
    assert f"{block}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("j_max, expected", [(6, EXIT_OK), (7, EXIT_INPUT), (10, EXIT_INPUT)])
def test_degenerate_j_max_outside_truncation(tmp_path, capsys, j_max, expected):
    # j_max labels reach (j_max + 1, -1), so n_fock = 8 allows j_max <= 6
    cfg = base_config(tmp_path, Omega=1.0, n_fock=8)
    cfg["degenerate"] = {"j_max": j_max}
    code = main(["degenerate", "--config", write_config(tmp_path, cfg)])
    assert code == expected
    if expected == EXIT_INPUT:
        assert "degenerate.j_max" in capsys.readouterr().err


def test_determinism(tmp_path):
    cfg = base_config(tmp_path, n_fock=16)
    path = write_config(tmp_path, cfg)
    main(["spectrum", "--config", path])
    first = (tmp_path / "out" / "spectrum.csv").read_bytes()
    main(["spectrum", "--config", path])
    assert (tmp_path / "out" / "spectrum.csv").read_bytes() == first


def test_outputs_are_finite(tmp_path):
    cfg = base_config(tmp_path, g=0.2, Omega=1.05, n_fock=16)
    path = write_config(tmp_path, cfg)
    main(["spectrum", "--config", path])
    with open(tmp_path / "out" / "spectrum.csv") as f:
        for row in csv.DictReader(f):
            assert math.isfinite(float(row["eigenvalue"]))


@pytest.mark.parametrize(
    "command, g, sections",
    [("spectrum", 1e-17, {}), ("branches", 0.0, {"grid": {"g_max": 1e-17}})],
)
def test_untrackable_tiny_coupling_is_a_certification_failure(
    tmp_path, capsys, command, g, sections
):
    # at omega = Omega a coupling this small is below what the chain solver
    # resolves, and the branch tracker refuses it
    cfg = {**base_config(tmp_path, Omega=1.0, g=g), **sections}
    assert main([command, "--config", write_config(tmp_path, cfg)]) == EXIT_CERTIFICATION
    assert capsys.readouterr().err.startswith("certification failure: overlap")
    assert not (tmp_path / "out").exists()
