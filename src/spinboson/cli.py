"""Command-line front end: config loading, dispatch, deterministic file output.

Usage: spinboson <command> --config <path> [overrides]

Exit codes: 0 success, 1 certification failure (e.g. no spanning chain),
2 input error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import control, perturbation, resonance, spectral
from .fockmodel import BasisIndex, ModelParams, build_control

EXIT_OK = 0
EXIT_CERTIFICATION = 1
EXIT_INPUT = 2

ENV_OUTPUT_DIR = "SPINBOSON_OUTPUT_DIR"

COMMANDS = (
    "spectrum",
    "branches",
    "perturb",
    "resonance",
    "chain",
    "transfer",
    "convergence",
    "degenerate",
)


class ConfigError(ValueError):
    pass


def _reject_unknown(block: dict, allowed: set[str], where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r} in {where}")


def _level(d: dict, where: str) -> BasisIndex:
    _reject_unknown(d, {"n", "s"}, where)
    try:
        return BasisIndex(int(d["n"]), int(d["s"]))
    except KeyError as exc:
        raise ConfigError(f"missing key {exc.args[0]!r} in {where}") from None


@dataclass
class RunConfig:
    model: ModelParams
    output_dir: str = "."
    seed: int = 0
    grid: dict = field(default_factory=dict)
    resonance: dict = field(default_factory=dict)
    transfer: dict = field(default_factory=dict)
    convergence: dict = field(default_factory=dict)
    perturb: dict = field(default_factory=dict)
    degenerate: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        allowed = {
            "model",
            "output_dir",
            "seed",
            "grid",
            "resonance",
            "transfer",
            "convergence",
            "perturb",
            "degenerate",
        }
        _reject_unknown(d, allowed, "config")
        if "model" not in d:
            raise ConfigError("missing key 'model' in config")
        try:
            model = ModelParams.from_dict(d["model"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        _reject_unknown(d.get("grid", {}), {"g_min", "g_max", "n_points"}, "grid")
        _reject_unknown(
            d.get("resonance", {}),
            {"window", "tol", "g_samples", "n_samples", "g_min", "g_max", "floor"},
            "resonance",
        )
        _reject_unknown(
            d.get("transfer", {}),
            {"source", "target", "delta", "max_periods", "threshold", "window"},
            "transfer",
        )
        _reject_unknown(d.get("convergence", {}), {"sizes", "tol"}, "convergence")
        _reject_unknown(
            d.get("perturb", {}),
            {"window", "n_points", "degree", "max_n"},
            "perturb",
        )
        _reject_unknown(d.get("degenerate", {}), {"window", "j_max"}, "degenerate")
        out = d.get("output_dir", os.environ.get(ENV_OUTPUT_DIR, "."))
        return cls(
            model=model,
            output_dir=out,
            seed=int(d.get("seed", 0)),
            grid=d.get("grid", {}),
            resonance=d.get("resonance", {}),
            transfer=d.get("transfer", {}),
            convergence=d.get("convergence", {}),
            perturb=d.get("perturb", {}),
            degenerate=d.get("degenerate", {}),
        )


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        raise RuntimeError(f"non-finite value {x} about to be written")
    return f"{x:.17g}"


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def _atomic_csv(path: str, header: list[str], rows: list[list]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        for row in rows:
            w.writerow([c if isinstance(c, str) else _fmt(c) for c in row])
    os.replace(tmp, path)


def _out(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.output_dir, exist_ok=True)
    return os.path.join(cfg.output_dir, name)


def cmd_spectrum(cfg: RunConfig) -> int:
    spec = control.labelled_spectrum(cfg.model)
    rows = []
    for k in range(spec.dim):
        lab = spec.labels.get(k)
        rows.append(
            [
                k,
                "" if lab is None else str(lab.n),
                "" if lab is None else str(lab.s),
                spec.eigenvalues[k],
            ]
        )
    _atomic_csv(
        _out(cfg, "spectrum.csv"), ["level", "label_n", "label_s", "eigenvalue"], rows
    )
    return EXIT_OK


def _grid_from_config(cfg: RunConfig) -> np.ndarray:
    g = cfg.grid
    lo = float(g.get("g_min", -0.05))
    hi = float(g.get("g_max", 0.05))
    n = int(g.get("n_points", 21))
    grid = np.linspace(lo, hi, n)
    if 0.0 not in grid:
        grid = np.sort(np.append(grid, 0.0))
    return grid


def cmd_branches(cfg: RunConfig) -> int:
    grid = _grid_from_config(cfg)
    family = spectral.track_branches(cfg.model, grid)
    rows = []
    for gi, g in enumerate(family.g_grid):
        for b, lab in enumerate(family.labels):
            rows.append([g, str(lab.n), str(lab.s), family.energies[b, gi]])
    _atomic_csv(
        _out(cfg, "branches.csv"), ["g", "label_n", "label_s", "eigenvalue"], rows
    )
    return EXIT_OK


def cmd_perturb(cfg: RunConfig) -> int:
    if cfg.model.omega == cfg.model.Omega:
        raise ConfigError(
            "omega = Omega in key 'model.Omega': use the `degenerate` command"
        )
    p = cfg.perturb
    max_n = int(p.get("max_n", 5))
    levels = [BasisIndex(n, s) for n in range(max_n + 1) for s in (1, -1)]
    rows = perturbation.build_table(
        cfg.model,
        levels,
        window=float(p.get("window", perturbation.FIT_WINDOW)),
        n_points=int(p.get("n_points", perturbation.FIT_POINTS)),
        degree=int(p.get("degree", perturbation.FIT_DEGREE)),
    )
    d = [r.to_dict() for r in rows]
    keys = [k for k in d[0] if k != "fit_window"]
    _atomic_csv(
        _out(cfg, "perturb.csv"),
        keys,
        [[r[k] if isinstance(r[k], int) else r[k] for k in keys] for r in d],
    )
    _atomic_write(_out(cfg, "perturb.json"), perturbation.table_to_json(rows))
    return EXIT_OK


def _g_samples(cfg: RunConfig) -> list[float]:
    r = cfg.resonance
    if "g_samples" in r:
        return [float(g) for g in r["g_samples"]]
    n = int(r.get("n_samples", 10))
    lo = float(r.get("g_min", 0.05))
    hi = float(r.get("g_max", 0.5))
    if cfg.seed:
        rng = np.random.default_rng(cfg.seed)
        return sorted(float(g) for g in rng.uniform(lo, hi, n))
    return [float(g) for g in np.linspace(lo, hi, n)]


def cmd_resonance(cfg: RunConfig) -> int:
    r = cfg.resonance
    window = int(r.get("window", 12))
    reports = []
    clean = True
    for g in _g_samples(cfg):
        spec = control.labelled_spectrum(cfg.model.with_g(g))
        spec.trust_cutoff = max(spec.trust_cutoff, window)
        tol = float(r.get("tol", 1e-9 * spec.spectral_diameter()))
        scan = resonance.numeric_resonance_scan(spec, window, tol)
        clean = clean and not scan.filtered
        reports.append({"g": g, "report": json.loads(scan.to_json())})
    _atomic_write(
        _out(cfg, "resonance.json"),
        json.dumps({"samples": reports, "all_clean": clean}),
    )
    return EXIT_OK if clean else EXIT_CERTIFICATION


def cmd_chain(cfg: RunConfig) -> int:
    r = cfg.resonance
    spec = control.labelled_spectrum(cfg.model)
    window = int(r.get("window", spec.trust_cutoff))
    spec.trust_cutoff = max(spec.trust_cutoff, window)
    graph = resonance.coupling_graph(
        spec,
        build_control(cfg.model),
        floor=r.get("floor"),
        tol=r.get("tol"),
        window=window,
    )
    cert = resonance.certify_chain(graph)
    _atomic_write(
        _out(cfg, "chain.json"),
        json.dumps(
            {
                "graph": json.loads(graph.to_json()),
                "certificate": json.loads(cert.to_json()),
            }
        ),
    )
    return EXIT_OK if cert.connected else EXIT_CERTIFICATION


def cmd_transfer(cfg: RunConfig) -> int:
    t = cfg.transfer
    try:
        source = _level(t["source"], "transfer.source")
        target = _level(t["target"], "transfer.target")
        delta = float(t["delta"])
    except KeyError as exc:
        raise ConfigError(f"missing key {exc.args[0]!r} in transfer") from None
    threshold = float(t.get("threshold", control.DEFAULT_THRESHOLD))
    report = control.transfer_experiment(
        cfg.model,
        source,
        target,
        delta,
        window=t.get("window"),
        max_periods=int(t.get("max_periods", control.DEFAULT_MAX_PERIODS)),
        threshold=threshold,
    )
    _atomic_write(_out(cfg, "transfer.json"), report.to_json())
    rows = [
        [row["t"]] + list(row["p"]) for row in report.populations
    ]
    _atomic_csv(
        _out(cfg, "populations.csv"),
        ["t"] + [f"p{k}" for k in report.tracked_levels],
        rows,
    )
    return EXIT_OK if report.fidelity >= threshold else EXIT_CERTIFICATION


def cmd_convergence(cfg: RunConfig) -> int:
    c = cfg.convergence
    sizes = [int(n) for n in c.get("sizes", [32, 64, 128])]
    report = spectral.convergence_scan(cfg.model, sizes, tol=float(c.get("tol", 1e-8)))
    _atomic_write(_out(cfg, "convergence.json"), report.to_json())
    return EXIT_OK


def cmd_degenerate(cfg: RunConfig) -> int:
    if cfg.model.omega != cfg.model.Omega:
        raise ConfigError(
            "omega != Omega in key 'model.Omega': the `degenerate` command "
            "requires the resonant model"
        )
    d = cfg.degenerate
    window = int(d.get("window", 12))
    j_max = int(d.get("j_max", 5))
    h = 1e-3
    grid = np.array([-2 * h, -h, 0.0, h, 2 * h])
    family = spectral.track_branches(cfg.model, grid)
    slopes = []
    for j in range(j_max + 1):
        up, dn = perturbation.degenerate_slopes(j)
        for lab, closed in ((BasisIndex(j, 1), up), (BasisIndex(j + 1, -1), dn)):
            e = family.energies[family.branch_index(lab)]
            numeric = (e[0] - 8 * e[1] + 8 * e[3] - e[4]) / (12 * h)
            slopes.append(
                {
                    "label_n": lab.n,
                    "label_s": lab.s,
                    "slope_closed": closed,
                    "slope_numeric": float(numeric),
                }
            )
    check = resonance.degenerate_quadruple_check(window, cfg.model.omega)
    _atomic_write(
        _out(cfg, "degenerate.json"),
        json.dumps({"slopes": slopes, "quadruple_check": check}),
    )
    return EXIT_OK if check["n_violations"] == 0 else EXIT_CERTIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinboson",
        description="Desk-scale controllability certification for the "
        "controlled Rabi model",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--g", type=float, default=None, help="override model.g")
    parser.add_argument(
        "--n-fock", type=int, default=None, help="override model.n_fock"
    )
    parser.add_argument("--omega", type=float, default=None, help="override model.omega")
    parser.add_argument("--Omega", type=float, default=None, help="override model.Omega")
    parser.add_argument("--output-dir", default=None, help="override output_dir")
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    return parser


def run(command: str, cfg: RunConfig) -> int:
    handler = {
        "spectrum": cmd_spectrum,
        "branches": cmd_branches,
        "perturb": cmd_perturb,
        "resonance": cmd_resonance,
        "chain": cmd_chain,
        "transfer": cmd_transfer,
        "convergence": cmd_convergence,
        "degenerate": cmd_degenerate,
    }[command]
    return handler(cfg)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.config) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        cfg = RunConfig.from_dict(raw)
        model = cfg.model.to_dict()
        for key, value in (
            ("g", args.g),
            ("n_fock", args.n_fock),
            ("omega", args.omega),
            ("Omega", args.Omega),
        ):
            if value is not None:
                model[key] = value
        cfg.model = ModelParams.from_dict(model)
        if args.output_dir is not None:
            cfg.output_dir = args.output_dir
        if args.seed is not None:
            cfg.seed = args.seed
        return run(args.command, cfg)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except control.TransferError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION


if __name__ == "__main__":
    sys.exit(main())
