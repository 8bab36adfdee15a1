"""Command-line front end: config checking, dispatch, deterministic file output.

Usage: spinboson <command> --config <path> [overrides]

Exit codes: 0 success, 1 certification failure (e.g. no spanning chain),
2 input error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import control, perturbation, resonance, spectral
from ._io import atomic_write, dump_json, write_csv
from .fockmodel import (
    BasisIndex,
    ModelParams,
    bare_energy,
    build_control,
    build_interaction,
    tied,
)
from .spectral import GridRefinementError, SolverError

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_INPUT = 2

ENV_OUTPUT_DIR = "SPINBOSON_OUTPUT_DIR"

REQUIRED = object()

# Every accepted key, top-level or "section.key", with its kind and default.
# A None default is worked out by the command that reads the key. A REQUIRED
# key must be given in `model`, and in the section named after the command.
SCHEMA: dict[str, tuple[str, object]] = {
    "output_dir": ("str", None),
    "seed": ("int", 0),
    "model.omega": ("float", REQUIRED),
    "model.Omega": ("float", REQUIRED),
    "model.g": ("float", REQUIRED),
    "model.n_fock": ("int", REQUIRED),
    "grid.g_min": ("float", -0.05),
    "grid.g_max": ("float", 0.05),
    "grid.n_points": ("int", 21),
    "resonance.window": ("int", None),
    "resonance.tol": ("float", None),
    "resonance.g_samples": ("list[float]", None),
    "resonance.n_samples": ("int", 10),
    "resonance.g_min": ("float", 0.05),
    "resonance.g_max": ("float", 0.5),
    "resonance.floor": ("float", None),
    "transfer.source": ("label", REQUIRED),
    "transfer.target": ("label", REQUIRED),
    "transfer.delta": ("float", REQUIRED),
    "transfer.max_periods": ("int", control.DEFAULT_MAX_PERIODS),
    "transfer.threshold": ("float", control.DEFAULT_THRESHOLD),
    "transfer.window": ("int", None),
    "convergence.sizes": ("list[int]", (32, 64, 128)),
    "convergence.tol": ("float", spectral.TRUST_TOL),
    "perturb.window": ("float", perturbation.FIT_WINDOW),
    "perturb.n_points": ("int", perturbation.FIT_POINTS),
    "perturb.degree": ("int", perturbation.FIT_DEGREE),
    "perturb.max_n": ("int", 5),
    "degenerate.window": ("int", 12),
    "degenerate.j_max": ("int", 5),
}
# Lower bounds of the keys that have one: an int is at least its bound, a
# float exceeds it, and a str or list has at least that many entries.
MINIMUM: dict[str, int | float] = {
    "output_dir": 1,
    "grid.n_points": 1,
    "resonance.window": 1,
    "resonance.g_samples": 1,
    "resonance.tol": 0.0,
    "resonance.n_samples": 1,
    "resonance.floor": 0.0,
    "transfer.delta": 0.0,
    "transfer.max_periods": 1,
    "transfer.threshold": 0.0,
    "transfer.window": 1,
    "convergence.sizes": 2,
    "convergence.tol": 0.0,
    "perturb.window": 0.0,
    "perturb.degree": 4,  # the table reads the fit up to E4
    "perturb.max_n": 0,
    "degenerate.window": 2,  # the fewest levels that form a quadruple
    "degenerate.j_max": 0,
}
# Upper bounds of the keys that have one. A transfer of 10**6 periods took
# 1.7-2.2 s at n_fock 8, 0.6-0.7 s of it the search (the rest is start-up and
# writing its 95,511 population rows); at ~0.6 us a period, 10**12 would run
# for about a week. The quadruple check's n**2 slope differences took 0.24 s
# and 148 MB peak RSS at window 1000, 1.1 s and 415 MB at 2000, growing about
# as window**2. At n_fock 256, `branches` over 1000 grid points took 2.5 s and
# 146 MB peak RSS (5.6 s at 2000), and `resonance` over 1000 drawn samples
# 3.9 s (8.0 s at 2000); one OpenBLAS thread on a 2-vCPU x86-64 VM.
MAXIMUM: dict[str, int] = {
    "transfer.max_periods": 10**6,
    "degenerate.window": 1000,
    "grid.n_points": 1000,
    "resonance.n_samples": 1000,
}
# Keys whose value x is a coupling g, or the control amplitude delta of
# X (x) 1, whose ladder the couplings share: each scales the top ladder entry.
COUPLINGS = (
    "resonance.g_samples",
    "resonance.g_min",
    "resonance.g_max",
    "grid.g_min",
    "grid.g_max",
    "perturb.window",
    "transfer.delta",
)
TOP_LEVEL = {key for key in SCHEMA if "." not in key}
SECTIONS = {key.split(".")[0] for key in SCHEMA} - TOP_LEVEL

KIND_TEXT = {
    "int": "an integer",
    "float": "a finite number",
    "str": "a string",
    "list[int]": "a list of integers",
    "list[float]": "a list of finite numbers",
    "label": 'a level label {"n": n >= 0, "s": +1 or -1}',
}


class ConfigError(ValueError):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_float(value) -> bool:
    """A JSON number (integers too) that is finite as a float."""
    if _is_int(value):
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


def _typed(key: str, kind: str, value):
    """`value` as the key's kind; ConfigError naming the key if it is not one."""
    if (kind == "int" and _is_int(value)) or (kind == "str" and isinstance(value, str)):
        return value
    if kind == "float" and _is_float(value):
        return float(value)
    if kind == "list[int]" and isinstance(value, list) and all(map(_is_int, value)):
        return value
    if kind == "list[float]" and isinstance(value, list) and all(map(_is_float, value)):
        return [float(v) for v in value]
    if kind == "label" and isinstance(value, dict) and set(value) == {"n", "s"}:
        n, s = value["n"], value["s"]
        if _is_int(n) and n >= 0 and _is_int(s) and s in (-1, 1):
            return BasisIndex(n, s)
    raise ConfigError(f"key {key!r} must be {KIND_TEXT[kind]}, got {value!r}")


def _bounded(key: str, kind: str, value):
    """`value`; ConfigError naming the key if it falls short of its MINIMUM
    or exceeds its MAXIMUM."""
    high = MAXIMUM.get(key)
    if high is not None and value > high:
        raise ConfigError(f"key {key!r} must be <= {high}, got {value!r}")
    low = MINIMUM.get(key)
    if low is None:
        return value
    if kind == "float":
        ok, bound = value > low, f"> {low}"
    elif kind == "int":
        ok, bound = value >= low, f">= {low}"
    else:
        ok, bound = len(value) >= low, f"of length >= {low}"
    if not ok:
        raise ConfigError(f"key {key!r} must be {bound}, got {value!r}")
    return value


def check_config(raw, command: str, flags: dict[str, object]) -> dict[str, object]:
    """Every SCHEMA key's typed value, from `raw` and the non-None `flags`.

    A JSON null counts as absent, and absent keys take their defaults. The
    extra key "model" holds the ModelParams built from the model section.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"the config must be a JSON object, got {raw!r}")
    given = {}
    for name, value in raw.items():
        if name in TOP_LEVEL:
            given[name] = value
        elif name not in SECTIONS:
            raise ConfigError(f"unknown key {name!r}")
        elif isinstance(value, dict):
            given.update((f"{name}.{key}", v) for key, v in value.items())
        elif value is not None:
            raise ConfigError(f"key {name!r} must be an object, got {value!r}")
    given.update((key, v) for key, v in flags.items() if v is not None)
    if given.get("output_dir") is None:
        given["output_dir"] = os.environ.get(ENV_OUTPUT_DIR, ".")
    unknown = sorted(set(given) - set(SCHEMA))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    values = {}
    for key, (kind, default) in SCHEMA.items():
        if given.get(key) is not None:
            values[key] = _bounded(key, kind, _typed(key, kind, given[key]))
        elif default is not REQUIRED:
            values[key] = default
        elif key.split(".")[0] in ("model", command):
            raise ConfigError(f"missing key {key!r}")
        else:
            values[key] = None
    model = [values[f"model.{key}"] for key in ("omega", "Omega", "g", "n_fock")]
    try:
        values["model"] = ModelParams(*model)
    except ValueError as exc:
        raise ConfigError(f"key 'model': {exc}") from None
    if command != "convergence":  # `cmd_convergence` checks its own sizes
        _refuse_overflow(values, 2 * values["model"].n_fock)
    return values


def _refuse_overflow(cfg: dict, n_fock: int) -> None:
    """ConfigError naming the keys of a g range wider than the largest float,
    else the key that takes a matrix entry at `n_fock` beyond it. 2 *
    model.n_fock is the largest truncation a command other than `convergence`
    builds. The largest entries are the top bare energy and the top ladder
    entry sqrt((N - 1)/2) times g or a COUPLINGS value (each sample of
    `resonance.g_samples`), computed in Python floats, which overflow to inf
    without a warning. Like the bounds, every range and COUPLINGS key is
    checked, whichever command reads it."""
    for section in ("grid", "resonance"):
        lo, hi = cfg[f"{section}.g_min"], cfg[f"{section}.g_max"]
        if not math.isfinite(hi - lo):
            raise ConfigError(
                f"keys '{section}.g_min' = {lo} and '{section}.g_max' = {hi} span a "
                "range wider than the largest float"
            )
    model, top = cfg["model"], n_fock - 1
    ladder = math.sqrt(top / 2)  # `photon_ladder`'s top entry
    entries = [  # (key, value, entry); s = 0 gives the photons' energy alone
        ("model.omega", model.omega, bare_energy(top, 0, model.omega, model.Omega)),
        ("model.Omega", model.Omega, bare_energy(top, 1, model.omega, model.Omega)),
    ]
    for key in ("model.g", *COUPLINGS):
        samples = cfg[key] if isinstance(cfg[key], list) else [cfg[key]]
        entries += [(key, x, x * ladder) for x in samples if x is not None]
    for key, value, entry in entries:
        if not math.isfinite(entry):
            raise ConfigError(
                f"key {key!r} = {value!r} takes a matrix entry at n_fock = "
                f"{n_fock} beyond the largest float"
            )


def _out(cfg: dict, name: str) -> str:
    os.makedirs(cfg["output_dir"], exist_ok=True)
    return os.path.join(cfg["output_dir"], name)


def cmd_spectrum(cfg: dict) -> int:
    spec = spectral.labelled_spectrum(cfg["model"])
    rows = []
    for k, e in enumerate(spec.eigenvalues.tolist()):
        lab = spec.labels.get(k)
        n, s = ("", "") if lab is None else (str(lab.n), str(lab.s))
        rows.append([k, n, s, e])
    write_csv(
        _out(cfg, "spectrum.csv"), ["level", "label_n", "label_s", "eigenvalue"], rows
    )
    return EXIT_OK


def cmd_branches(cfg: dict) -> int:
    lo, hi, n = cfg["grid.g_min"], cfg["grid.g_max"], cfg["grid.n_points"]
    grid = np.linspace(lo, hi, n)
    if n > 1 and lo == -hi:
        # mirror the upper half exactly: each |g| is then one chain solve
        # for both signs (see `spectral.track_branches`)
        upper = grid[(n + 1) // 2 :]
        grid = np.concatenate([-upper[::-1], [0.0], upper])
    if 0.0 not in grid:
        grid = np.sort(np.append(grid, 0.0))
    if np.any(np.diff(grid) <= 0):
        raise ConfigError(
            f"keys 'grid.g_min' = {lo} and 'grid.g_max' = {hi} with 'grid.n_points' "
            f"= {n} give a g grid that is not strictly increasing"
        )
    spectral.track_branches(cfg["model"], grid).to_csv(_out(cfg, "branches.csv"))
    return EXIT_OK


def cmd_perturb(cfg: dict) -> int:
    model = cfg["model"]
    if tied(model.omega, model.Omega):
        raise ConfigError(
            "omega = Omega in key 'model.Omega': use the `degenerate` command"
        )
    max_n = cfg["perturb.max_n"]
    if max_n >= model.n_fock:
        raise ConfigError(f"key 'perturb.max_n' = {max_n} needs n_fock > {max_n}")
    n_points, degree = cfg["perturb.n_points"], cfg["perturb.degree"]
    if n_points % 2 == 0 or n_points < degree + 3:
        raise ConfigError(
            f"key 'perturb.n_points' = {n_points} must be odd and at least "
            f"'perturb.degree' + 3 = {degree + 3}"
        )
    levels = [BasisIndex(n, s) for n in range(max_n + 1) for s in (1, -1)]
    rows = perturbation.build_table(
        model,
        levels,
        window=cfg["perturb.window"],
        n_points=n_points,
        degree=degree,
    )
    perturbation.table_to_csv(rows, _out(cfg, "perturb.csv"))
    atomic_write(_out(cfg, "perturb.json"), perturbation.table_to_json(rows))
    return EXIT_OK


def _g_samples(cfg: dict) -> list[float]:
    if cfg["resonance.g_samples"] is not None:
        return cfg["resonance.g_samples"]
    n, lo, hi = cfg["resonance.n_samples"], cfg["resonance.g_min"], cfg["resonance.g_max"]
    if cfg["seed"]:
        if lo > hi:
            raise ConfigError(
                f"key 'resonance.g_min' = {lo} exceeds 'resonance.g_max' = {hi}, "
                "the range the seed draws from"
            )
        rng = np.random.default_rng(cfg["seed"])
        return sorted(float(g) for g in rng.uniform(lo, hi, n))
    return [float(g) for g in np.linspace(lo, hi, n)]


def _window(cfg: dict, key: str, default: int, spec: spectral.Spectrum, g: float) -> int:
    """The window under `key`, else `default` cut to the levels `spec` trusts;
    refused outside 1..trust. The count of trusted levels is read (and the
    convergence scan run) only for the cut and the refusal."""
    window = spec.trusted_window(default) if cfg[key] is None else cfg[key]
    if window < 1 or not spec.trusts(window):
        raise ConfigError(
            f"key {key!r}: window {window} must be >= 1 and within the "
            f"{spec.trust_cutoff} levels the convergence scan trusts at g = {g}"
        )
    return window


def cmd_resonance(cfg: dict) -> int:
    reports = []
    clean = True
    for g in _g_samples(cfg):
        spec = spectral.rabi_spectrum(cfg["model"].with_g(g))
        window = _window(cfg, "resonance.window", 12, spec, g)
        scan = resonance.numeric_resonance_scan(spec, window, cfg["resonance.tol"])
        clean = clean and not scan.filtered
        reports.append({"g": g, "report": scan.to_dict()})
    atomic_write(
        _out(cfg, "resonance.json"),
        dump_json({"samples": reports, "all_clean": clean}),
    )
    return EXIT_OK if clean else EXIT_CERTIFICATION


def cmd_chain(cfg: dict) -> int:
    model = cfg["model"]
    spec = spectral.labelled_spectrum(model)
    default = spectral.default_window(model.n_fock)
    window = _window(cfg, "resonance.window", default, spec, model.g)
    graph = resonance.coupling_graph(
        spec,
        build_control(model),
        floor=cfg["resonance.floor"],
        tol=cfg["resonance.tol"],
        window=window,
    )
    cert = resonance.certify_chain(graph)
    atomic_write(
        _out(cfg, "chain.json"),
        dump_json({"graph": graph.to_dict(), "certificate": cert.to_dict()}),
    )
    return EXIT_OK if cert.connected else EXIT_CERTIFICATION


def cmd_transfer(cfg: dict) -> int:
    model = cfg["model"]
    for key in ("transfer.source", "transfer.target"):
        if cfg[key].n >= model.n_fock:
            raise ConfigError(
                f"key {key!r} names {cfg[key]}, outside n_fock = {model.n_fock}"
            )
    default = spectral.default_window(model.n_fock)
    # the window is checked against the spectrum the transfer uses
    spectrum = control.labelled_spectrum(model)
    window = _window(cfg, "transfer.window", default, spectrum, model.g)
    threshold = cfg["transfer.threshold"]
    report = control.transfer_experiment(
        model,
        cfg["transfer.source"],
        cfg["transfer.target"],
        cfg["transfer.delta"],
        window=window,
        max_periods=cfg["transfer.max_periods"],
        threshold=threshold,
        spectrum=spectrum,
    )
    atomic_write(_out(cfg, "transfer.json"), report.to_json())
    report.populations_to_csv(_out(cfg, "populations.csv"))
    # a pass must hold beyond the working truncation's change to twice it
    # and the search's rounding
    return EXIT_OK if report.fidelity - report.drift >= threshold else EXIT_CERTIFICATION


def cmd_convergence(cfg: dict) -> int:
    sizes = cfg["convergence.sizes"]
    if sizes[0] < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError(
            f"key 'convergence.sizes' = {sizes} must increase strictly from >= 2"
        )
    _refuse_overflow(cfg, sizes[-1])
    report = spectral.convergence_scan(cfg["model"], sizes, tol=cfg["convergence.tol"])
    atomic_write(_out(cfg, "convergence.json"), report.to_json())
    return EXIT_OK


def cmd_degenerate(cfg: dict) -> int:
    model = cfg["model"]
    if not tied(model.omega, model.Omega):
        raise ConfigError(
            "omega != Omega in key 'model.Omega': the `degenerate` command "
            "requires the resonant model"
        )
    j_max = cfg["degenerate.j_max"]
    if j_max + 1 >= model.n_fock:
        raise ConfigError(f"key 'degenerate.j_max' = {j_max} needs n_fock > {j_max + 1}")
    family = spectral.track_branches(model, [0.0])
    rows = spectral.hellmann_feynman_check(family, build_interaction(model), 0.0)
    slopes = []
    for j in range(j_max + 1):
        up, dn = perturbation.degenerate_slopes(j)
        for lab, closed in ((BasisIndex(j, 1), up), (BasisIndex(j + 1, -1), dn)):
            slopes.append(
                {
                    "label_n": lab.n,
                    "label_s": lab.s,
                    "slope_closed": closed,
                    "slope_numeric": float(rows[family.branch_index(lab)]["fd_slope"]),
                }
            )
    check = resonance.degenerate_quadruple_check(cfg["degenerate.window"], model.omega)
    atomic_write(
        _out(cfg, "degenerate.json"),
        dump_json({"slopes": slopes, "quadruple_check": check}),
    )
    # the stencil step scales with omega, so the numeric slopes meet the closed
    # forms at any omega; a miss still fails the command, and argmax finds a
    # NaN miss first
    miss = np.abs([row["slope_numeric"] - row["slope_closed"] for row in slopes])
    worst = int(np.argmax(miss))
    if not miss[worst] <= spectral.SLOPE_TOL:
        lab = BasisIndex(slopes[worst]["label_n"], slopes[worst]["label_s"])
        print(f"certification failure: the slope of {lab} misses its closed form by "
              f"{miss[worst]:.3g}, above {spectral.SLOPE_TOL}", file=sys.stderr)
        return EXIT_CERTIFICATION
    return EXIT_OK if check["n_violations"] == 0 else EXIT_CERTIFICATION


COMMANDS = {
    "spectrum": cmd_spectrum,
    "branches": cmd_branches,
    "perturb": cmd_perturb,
    "resonance": cmd_resonance,
    "chain": cmd_chain,
    "transfer": cmd_transfer,
    "convergence": cmd_convergence,
    "degenerate": cmd_degenerate,
}


def build_parser() -> argparse.ArgumentParser:
    """The overrides are stored under the SCHEMA key they replace."""
    parser = argparse.ArgumentParser(
        prog="spinboson",
        description="Desk-scale controllability certification for the "
        "controlled Rabi model",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    for flag, key, kind in (
        ("--g", "model.g", float),
        ("--n-fock", "model.n_fock", int),
        ("--omega", "model.omega", float),
        ("--Omega", "model.Omega", float),
        ("--output-dir", "output_dir", str),
        ("--seed", "seed", int),
    ):
        parser.add_argument(flag, type=kind, dest=key, help=f"override {key}")
    return parser


def main(argv: list[str] | None = None) -> int:
    flags = vars(build_parser().parse_args(argv))
    command, path = flags.pop("command"), flags.pop("config")
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        return COMMANDS[command](check_config(raw, command, flags))
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (control.TransferError, GridRefinementError, SolverError) as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
