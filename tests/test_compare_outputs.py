import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])  # the tool adds perfbench/
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("base_rc, expected", [(0, 0), (1, 1)])
def test_differing_exit_codes_fail(tool, monkeypatch, tmp_path, base_rc, expected):
    def fake_run_op(src, op, out_dir):
        out_dir.mkdir(parents=True)
        (out_dir / "out.json").write_text("{}")
        return base_rc if out_dir.parent.name == "base" else 0

    monkeypatch.setattr(tool, "run_op", fake_run_op)
    argv = ["--base", str(tmp_path), "--seed", "1", "--workload", "wide-window"]
    assert tool.main(argv) == expected


def run_with_outputs(tool, monkeypatch, tmp_path, name, base_text, head_text):
    """Run the tool on one workload whose ops write `name`, differing by tree."""

    def fake_run_op(src, op, out_dir):
        out_dir.mkdir(parents=True)
        base = out_dir.parent.name == "base"
        (out_dir / name).write_text(base_text if base else head_text)
        return 0

    monkeypatch.setattr(tool, "run_op", fake_run_op)
    argv = ["--base", str(tmp_path), "--seed", "1", "--workload", "wide-window"]
    return tool.main(argv)


@pytest.mark.parametrize(
    "base_text, head_text",
    [
        ('{"n_segments": 683, "fidelity": 0.5}', '{"n_segments": 681, "fidelity": 0.5}'),
        ('{"connected": true}', '{"connected": false}'),
        ('{"label": "(0,+1)"}', '{"label": "(1,-1)"}'),
        ('{"chain": null}', '{"chain": 1}'),
        ('{"edges": [[0, 1]]}', '{"edges": [[0, 1], [1, 2]]}'),
    ],
    ids=["int", "bool", "str", "null", "structure"],
)
def test_discrete_json_drift_fails(tool, monkeypatch, tmp_path, base_text, head_text):
    assert run_with_outputs(tool, monkeypatch, tmp_path, "out.json", base_text, head_text) == 1


def test_float_only_json_drift_passes(tool, monkeypatch, tmp_path, capsys):
    base = '{"n_segments": 683, "fidelity": 0.9893695180270182}'
    head = '{"n_segments": 683, "fidelity": 0.989369518027008}'
    assert run_with_outputs(tool, monkeypatch, tmp_path, "out.json", base, head) == 0
    assert "fidelity: n=1 max_abs_diff=1.021e-14" in capsys.readouterr().out


@pytest.mark.parametrize(
    "head_text, expected",
    [("t,label\n0.5,(0+)\n", 0), ("t,label\n0.50000000000000011,(0+)\n", 0), ("t,label\n0.5,(1-)\n", 1)],
    ids=["equal", "float-drift", "label-drift"],
)
def test_csv_non_number_cells_must_match(tool, monkeypatch, tmp_path, head_text, expected):
    base = "t,label\n0.5,(0+)\n"
    assert run_with_outputs(tool, monkeypatch, tmp_path, "out.csv", base, head_text) == expected


def test_reference_set_runs_by_default(tool, monkeypatch, tmp_path):
    ran = []

    def fake_run_op(src, op, out_dir):
        out_dir.mkdir(parents=True)
        if out_dir.parent.name == "head":
            ran.append(out_dir.name)
        return 0

    monkeypatch.setattr(tool, "run_op", fake_run_op)
    assert tool.main(["--base", str(tmp_path), "--seed", "1"]) == 0
    expected = [f"reference-op{i}-{op.command}" for i, op in enumerate(tool.REFERENCE)]
    assert [tag for tag in ran if tag.startswith("reference-")] == expected
