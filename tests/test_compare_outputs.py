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
