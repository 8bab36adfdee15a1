"""Workload generation and per-operation output checks.

A workload is an ordered list of operations; an operation is one
`spinboson <command> --config <file>` invocation with its expected exit
code. Every model parameter the program sees comes from here, derived from
the workload seed; the program never receives the seed itself.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

NAMES = ("certify-sweep", "transfer", "wide-window")

OMEGA, OMEGA_SPIN, G, DELTA = 1.0, 1.05, 0.2, 0.02

EIGEN_TOL = 1e-10
SLOPE_TOL = 1e-6
FIDELITY_THRESHOLD = 0.95


@dataclass(frozen=True)
class Op:
    """One CLI invocation: command, config (without output_dir), expected exit."""

    command: str
    config: dict
    expected_rc: int = 0


def _model(n_fock: int, g: float = G, Omega: float = OMEGA_SPIN) -> dict:
    return {"omega": OMEGA, "Omega": Omega, "g": g, "n_fock": n_fock}


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi], ascending.

    The draws still cover the whole range, but the work they cause (more
    continuation bisection at larger g) varies less from seed to seed.
    """
    width = (hi - lo) / n
    return [rng.uniform(lo + k * width, lo + (k + 1) * width) for k in range(n)]


def certify_sweep(seed: int, smoke: bool) -> list[Op]:
    n = 32 if smoke else 256
    rng = random.Random(seed)
    g_samples = _stratified(rng, 0.05, 0.5, 1 if smoke else 2)
    model = {"model": _model(n)}
    return [
        Op("spectrum", model),
        Op("branches", model),
        Op("perturb", model),
        Op("resonance", {**model, "resonance": {"window": 12, "g_samples": g_samples}}),
        Op("chain", {**model, "resonance": {"window": 12}}),
        Op("convergence", {**model, "convergence": {"sizes": [n, 2 * n]}}),
    ]


def transfer(seed: int, smoke: bool) -> list[Op]:
    # Both transfers and both truncations are fixed inputs, so the seed only
    # decides the order in which the four invocations run.
    ops = []
    for n in (16, 24) if smoke else (64, 128):
        for target in ({"n": 1, "s": -1}, {"n": 0, "s": 1}):
            spec = {"source": {"n": 0, "s": -1}, "target": target, "delta": DELTA}
            ops.append(Op("transfer", {"model": _model(n), "transfer": spec}))
    random.Random(seed).shuffle(ops)
    return ops


def wide_window(seed: int, smoke: bool) -> list[Op]:
    rng = random.Random(seed)
    degenerate = {
        "model": _model(16 if smoke else 64, g=0.0, Omega=OMEGA),
        "degenerate": {"window": 20 if smoke else 60},
    }
    ops = [Op("degenerate", degenerate)]
    n, window = (48, 12) if smoke else (160, 40)
    for g in _stratified(rng, 0.1, 0.3, 1 if smoke else 3):
        ops.append(Op("chain", {"model": _model(n, g), "resonance": {"window": window}}))
    return ops


GENERATORS = {"certify-sweep": certify_sweep, "transfer": transfer, "wide-window": wide_window}


def build(name: str, seed: int, smoke: bool = False) -> list[Op]:
    return GENERATORS[name](seed, smoke)


WARMUP = Op("spectrum", {"model": _model(4)})


# ---------------------------------------------------------------- checks


class CheckFailure(Exception):
    """An output file contradicts what the operation must produce."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


def _finite_json(value, where: str) -> None:
    if isinstance(value, float):
        _require(math.isfinite(value), f"non-finite number in {where}")
    elif isinstance(value, dict):
        for v in value.values():
            _finite_json(v, where)
    elif isinstance(value, list):
        for v in value:
            _finite_json(v, where)


def _finite_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        rows = list(csv.DictReader(f))
    for row in rows:
        for key, cell in row.items():
            if cell == "":
                continue
            try:
                x = float(cell)
            except ValueError:
                continue
            _require(math.isfinite(x), f"non-finite {key} in {path.name}")
    return rows


def _check_spectrum(op: Op, rows: list[dict]) -> None:
    import numpy as np
    import scipy.linalg
    from spinboson.fockmodel import ModelParams, build_rabi

    params = ModelParams.from_dict(op.config["model"])
    reference = scipy.linalg.eigvalsh(build_rabi(params).entries)
    values = np.array([float(r["eigenvalue"]) for r in rows])
    _require(len(values) == len(reference), "spectrum.csv has the wrong level count")
    scale = max(1.0, float(np.max(np.abs(reference))))
    err = float(np.max(np.abs(values - reference)))
    _require(
        err <= EIGEN_TOL * scale,
        f"spectrum.csv eigenvalues differ from eigvalsh by {err:.3e}",
    )
    labels = [(r["label_n"], r["label_s"]) for r in rows if r["label_n"] != ""]
    _require(len(labels) == len(set(labels)), "spectrum.csv repeats a label")


def check(op: Op, out_dir: Path) -> tuple[dict, str | None]:
    """Validate the files one operation wrote.

    Returns the facts other metrics need (the transfer fidelity) and the
    reason the outputs are wrong, or None when they pass.
    """
    facts: dict = {}
    try:
        _check(op, out_dir, facts)
    except CheckFailure as exc:
        return facts, str(exc)
    except (LookupError, TypeError, ValueError) as exc:
        return facts, f"malformed {op.command} output: {exc!r}"
    return facts, None


def _check(op: Op, out_dir: Path, facts: dict) -> None:
    _require(out_dir.is_dir(), f"{op.command} wrote no output")
    files = sorted(p for p in out_dir.iterdir() if p.is_file())
    _require(bool(files), f"{op.command} wrote no output")
    parsed = {}
    for path in files:
        if path.suffix == ".json":
            parsed[path.name] = json.loads(path.read_text())
            _finite_json(parsed[path.name], path.name)
        elif path.suffix == ".csv":
            parsed[path.name] = _finite_csv(path)
        else:
            raise CheckFailure(f"unexpected output file {path.name}")

    def need(name: str):
        _require(name in parsed, f"{op.command} did not write {name}")
        return parsed[name]

    if op.command == "spectrum":
        _check_spectrum(op, need("spectrum.csv"))
    elif op.command == "chain":
        window = op.config["resonance"]["window"]
        cert = need("chain.json")["certificate"]
        _require(cert["connected"], "chain.json is not connected")
        _require(
            len(cert["witness"]) == window - 1,
            f"chain.json witness has {len(cert['witness'])} edges, want {window - 1}",
        )
    elif op.command == "resonance":
        _require(need("resonance.json")["all_clean"] is True, "resonance.json not all_clean")
    elif op.command == "degenerate":
        report = need("degenerate.json")
        _require(report["quadruple_check"]["n_violations"] == 0, "degenerate violations")
        worst = max(abs(s["slope_closed"] - s["slope_numeric"]) for s in report["slopes"])
        _require(worst <= SLOPE_TOL, f"degenerate slope error {worst:.3e}")
    elif op.command == "transfer":
        facts["fidelity"] = fidelity = need("transfer.json")["fidelity"]
        need("populations.csv")
        _require(fidelity >= FIDELITY_THRESHOLD, f"transfer fidelity {fidelity}")
    elif op.command in ("branches", "perturb", "convergence"):
        need({"branches": "branches.csv", "perturb": "perturb.json",
              "convergence": "convergence.json"}[op.command])

