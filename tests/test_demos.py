"""Each demo runs from a copy of itself and writes its CSV beside that copy."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ENV = {
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONDONTWRITEBYTECODE": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# (demo, the CSV it writes or None)
DEMOS = [
    ("branch_spectrum.py", "branches.csv"),
    ("perturbation_series.py", None),
    ("resonance_chain.py", None),
    ("state_transfer.py", "populations.csv"),
]


@pytest.mark.parametrize("demo, csv", DEMOS)
def test_demo_runs(tmp_path, demo, csv):
    script = tmp_path / demo
    shutil.copy(ROOT / "demos" / demo, script)
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env={**os.environ, **ENV},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout
    written = {path.name for path in tmp_path.iterdir()} - {demo}
    assert written == ({csv} if csv else set())
    if csv:
        assert len((tmp_path / csv).read_text().splitlines()) > 1
