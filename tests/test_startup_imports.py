"""`import spinboson.cli` reaches LAPACK without scipy.linalg's package init,
and refuses to import when SciPy's LAPACK extension is not there."""

import ast
import importlib.machinery
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spinboson import spectral

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spinboson"
# scipy covers scipy.linalg and scipy._lib, whose init imports the numpy ones
HEAVY = ("scipy", "numpy.f2py", "numpy.testing")
DRIVER_NAMES = ("dstevd", "dstebz", "_flapack")


def test_cli_import_skips_scipy_package_init():
    probe = "import sys, json, spinboson.cli; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    loaded = json.loads(out.stdout)
    heavy = [m for m in loaded if any(m == h or m.startswith(h + ".") for h in HEAVY)]
    assert heavy == ["scipy.linalg._flapack"]


@pytest.mark.parametrize("extension", [None, b"not a shared object"])
def test_missing_or_broken_extension_is_an_import_error(tmp_path, monkeypatch, extension):
    path = tmp_path / "linalg" / f"_flapack{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    if extension is not None:
        path.parent.mkdir()
        path.write_bytes(extension)
    scipy = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    scipy.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: scipy)
    with pytest.raises(ImportError, match=re.escape(str(path.parent))):
        spectral._load_flapack()


def driver_names(path: Path) -> list[str]:
    """`name:line` of each identifier or string in the module, docstrings
    aside, that names a LAPACK driver or SciPy's LAPACK extension."""
    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings = {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            text = "" if id(node) in docstrings else node.value
        else:
            text = getattr(node, "id", None) or getattr(node, "attr", None) or ""
        found += [f"{name}:{node.lineno}" for name in DRIVER_NAMES if name in text]
    return found


def test_only_spectral_names_the_lapack_drivers():
    modules = sorted(PACKAGE.glob("*.py"))
    assert driver_names(PACKAGE / "spectral.py")
    stray = {p.name: driver_names(p) for p in modules if p.name != "spectral.py"}
    assert {name: found for name, found in stray.items() if found} == {}
