"""Compare the CLI outputs of two source trees on the benchmark's operations.

    python3 tools/compare_outputs.py --base <other checkout>/src --seed 101

Builds every operation of `perfbench/workloads.py` for the seed and of the
fixed `reference` set below (`--workload` picks the sets; all run by
default), and runs each one as `spinboson <command> --config <file>` in a
fresh interpreter, once against each source tree (`--head` defaults to
this checkout's `src`), with BLAS pinned to one thread. For every output
file it prints both exit codes, whether the bytes are equal and, per field
(CSV column or JSON key path), the largest absolute difference and the
number of sign flips, then the largest difference of magnitudes, which a
change of signs alone leaves at 0. `--repeat N` runs the head tree N more
times and reports whether its repeats are byte-identical. Float fields only report
their drift; a discrete field (a JSON int, bool, str or null, a CSV cell
that is not a number) must be equal. Exits 1 when the runs of an
operation end with different exit codes, a head repeat differs, the trees
write different sets of files, a file's structure differs or a discrete
field differs, else 0. Where the structures differ, the fields that the two
files hold equally often are still compared, and the others are named.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def _model(Omega: float, g: float, n_fock: int, omega: float = 1.0) -> dict:
    return {"model": {"omega": omega, "Omega": Omega, "g": g, "n_fock": n_fock}}


def _transfer(model: dict, target: dict, **keys) -> workloads.Op:
    """A transfer from (0, -1) to `target` at delta 0.02; `keys` go into the
    transfer section."""
    spec = {"source": {"n": 0, "s": -1}, "target": target, "delta": 0.02, **keys}
    return workloads.Op("transfer", {**model, "transfer": spec})


# Fixed configs that the seeded workloads miss: g = 0, with the exact ties of
# Omega = omega and 3 omega and, at n_fock 200, their order; labels on either
# side of Omega = 3 omega; a negative g; cross-spin transfers, one at a
# negative g; a two-edge transfer; a ladder transfer searched over a single
# period; chains whose continuation bisects and matches diabatically near
# Omega = 5 omega, on either side of g = 0; the degenerate slopes away
# from omega = 1; and branches through the tie Omega = omega at couplings
# small enough that every chain solve proves orthonormality by its Gram matrix;
# then a chain labelled by rank near the edge Omega = 2 omega of the near-tie
# rule, and a spectrum at Omega = 4 omega, where the continuation's labels
# depart from rank away from an odd resonance; then the degenerate suite at
# omega = Omega = 1e-13, whose quadruple check reports what omega = 1 does,
# and whose stencil, of a step that scales with omega, meets the slopes
# (exit 0). Then the transfer search in each regime of its block size B
# (periods per giant step): at n_fock 16 (2N = 32) B = 1 at max_periods 3 and
# B = 8 at 100, B capped at 8 by 2N = 10 at n_fock 5 (at n_fock 4 the trusted
# window of one level holds no path), and the n_fock 8 ladder at 10**5 periods
# (B = 16). Then branches over a range symmetric about 0 whose steps bisect
# near Omega = 5 omega, both signs of g sharing each mirrored chain solve, and
# branches over an asymmetric range, whose grid stays linspace's. Then a
# two-edge transfer at n_fock 64 (B = 32, as in the benchmark), whose second
# edge starts from the state the first edge's search iterates end on. Then a
# default ladder transfer at n_fock 256 (2N = 512, B = 8), where pricing
# squarings at GEMM speed moved B the furthest (from 2), so its counts guard
# against discrete drift. Then the degenerate suite at omega = Omega = 1e4,
# the large side of the quadruple check's and the stencil's independence of
# omega (exit 0). Then the degenerate suite at omega = 1e-13, Omega = 2 omega,
# which a relative tie no longer takes for resonant (exit 2 naming
# model.Omega), and at omega = Omega = 1e-6, n_fock 16, where a stencil of
# fixed step 1e-3 missed a slope by 1.44 (exit 0). Last, cross-spin transfers
# on either side of the working-truncation boundary: n_fock 32 and 63 search
# on themselves, and 64, the first n_fock with 4 * 16 <= n_fock, searches on
# 16 and checks it on 32. Then window checks that the padded-residual
# certificate declines, so that the convergence scan decides them: a chain at
# omega = 2**20 (Omega and g scaled), where the bound on the scan's rounding
# exceeds its tol; a chain at n_fock 16, g = 2, whose scan trusts 2 levels, so
# the default window of 4 is cut to them; and a resonance window of 60 at
# n_fock 32, beyond the 52 levels trusted there (exit 2 naming them). Then a
# cross-spin transfer at g = 1.5, n_fock 128 that the check at 2M refuses on
# M = 16, so it keeps a larger working truncation: it searches 16, 32 and 64
# and keeps 32 (2443 segments, exit 0). Last, a chain at n_fock 1024 over its
# default window of 256 levels, the largest op: each chain solve forms its
# residuals in 16 blocks, and the padded-residual certificate covers 256
# levels (256 nodes, 2219 edges, connected, exit 0).
REFERENCE = [
    *(workloads.Op("spectrum", _model(Omega, 0.0, 33)) for Omega in (1.0, 1.1, 3.0)),
    workloads.Op("spectrum", _model(1.0, 0.0, 200)),
    *(workloads.Op("chain", _model(Omega, 0.0, 33)) for Omega in (1.0, 1.1)),
    *(workloads.Op("spectrum", _model(Omega, 0.2, 32)) for Omega in (2.999, 3.001)),
    workloads.Op("chain", _model(1.05, -0.3, 32)),
    _transfer(_model(1.05, 0.2, 16), {"n": 0, "s": 1}, max_periods=300),
    _transfer(_model(1.05, 0.2, 16), {"n": 1, "s": 1}, window=6),
    _transfer(_model(1.05, -0.3, 24), {"n": 0, "s": 1}),
    _transfer(_model(1.05, 0.2, 16), {"n": 1, "s": -1}, max_periods=1),
    *(workloads.Op("chain", _model(4.999, g, 32)) for g in (-0.5, 0.5)),
    workloads.Op("degenerate", _model(0.7, 0.0, 16, omega=0.7)),
    workloads.Op("branches", {**_model(1.0, 0.0, 64), "grid": {"g_min": -1e-3, "g_max": 1e-3}}),
    workloads.Op("chain", _model(1.9, 0.5, 32)),
    workloads.Op("spectrum", _model(4.0, 0.5, 32)),
    workloads.Op(
        "degenerate", {**_model(1e-13, 0.0, 16, omega=1e-13), "degenerate": {"window": 24}}
    ),
    *(_transfer(_model(1.05, 0.2, 16), {"n": 1, "s": -1}, max_periods=m) for m in (3, 100)),
    _transfer(_model(1.05, 0.2, 5), {"n": 1, "s": -1}, window=2),
    _transfer(_model(1.05, 0.2, 8), {"n": 1, "s": -1}, max_periods=10**5),
    workloads.Op(
        "branches",
        {**_model(4.999, 0.0, 32), "grid": {"g_min": -0.5, "g_max": 0.5, "n_points": 11}},
    ),
    workloads.Op("branches", {**_model(1.05, 0.0, 32), "grid": {"g_min": -0.02, "g_max": 0.05}}),
    _transfer(_model(1.05, 0.2, 64), {"n": 1, "s": 1}),
    _transfer(_model(1.05, 0.2, 256), {"n": 1, "s": -1}),
    workloads.Op(
        "degenerate", {**_model(1e4, 0.0, 16, omega=1e4), "degenerate": {"window": 24}}
    ),
    workloads.Op("degenerate", _model(2e-13, 0.0, 16, omega=1e-13)),
    workloads.Op("degenerate", _model(1e-6, 0.0, 16, omega=1e-6)),
    *(_transfer(_model(1.05, 0.2, n), {"n": 0, "s": 1}) for n in (32, 63, 64)),
    workloads.Op("chain", _model(1.05 * 2**20, 0.2 * 2**20, 64, omega=2.0**20)),
    workloads.Op("chain", _model(1.05, 2.0, 16)),
    workloads.Op(
        "resonance", {**_model(1.05, 0.2, 32), "resonance": {"window": 60, "g_samples": [0.2]}}
    ),
    _transfer(_model(1.05, 1.5, 128), {"n": 0, "s": 1}),
    workloads.Op("chain", _model(1.05, 0.2, 1024)),
]
SETS = (*workloads.NAMES, "reference")


def ops_of(name: str, seed: int) -> list[workloads.Op]:
    return REFERENCE if name == "reference" else workloads.build(name, seed)


BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RUN_CLI = "import sys; from spinboson.cli import main; sys.exit(main(sys.argv[1:]))"


def run_op(src: Path, op: workloads.Op, out_dir: Path) -> int:
    out_dir.mkdir(parents=True)
    config = out_dir.parent / f"{out_dir.name}.json"
    config.write_text(json.dumps({**op.config, "output_dir": str(out_dir)}))
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": str(src)}
    cmd = [sys.executable, "-c", RUN_CLI, op.command, "--config", str(config)]
    return subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def flatten(path: Path) -> list[tuple[str, object]]:
    """(field, value) pairs of a CSV (field = column) or JSON (field = key path)."""
    if path.suffix == ".csv":
        with open(path, newline="") as f:
            return [(k, _number(v)) for row in csv.DictReader(f) for k, v in row.items()]
    pairs: list[tuple[str, object]] = []

    def walk(value, key: str) -> None:
        if isinstance(value, dict):
            for k, v in value.items():
                walk(v, f"{key}.{k}" if key else k)
        elif isinstance(value, list):
            for v in value:
                walk(v, key + "[]")
        else:
            pairs.append((key, value))

    walk(json.loads(path.read_text()), "")
    return pairs


def compare_file(base: Path, head: Path) -> tuple[bool, list[str]]:
    """Whether the files agree in structure and every discrete field, then one
    summary line for the file and one per field that is not equal."""
    if base.read_bytes() == head.read_bytes():
        return True, ["bytes equal"]
    a, b = flatten(base), flatten(head)
    same_structure = [k for k, _ in a] == [k for k, _ in b]
    if not same_structure:
        # compare the fields both files hold the same number of times, in order
        counts = [Counter(k for k, _ in pairs) for pairs in (a, b)]
        shared = {k for k in counts[0] if counts[0][k] == counts[1][k]}
        moved = sorted((set(counts[0]) | set(counts[1])) - shared)
        a, b = ([(k, v) for k, v in pairs if k in shared] for pairs in (a, b))
    fields: dict[str, list] = {}
    for (key, x), (_, y) in zip(a, b):
        # count, max diff, flips, max diff of magnitudes, mismatches
        stat = fields.setdefault(key, [0, 0.0, 0, 0.0, 0])
        stat[0] += 1
        if isinstance(x, float) and isinstance(y, float):
            stat[1] = max(stat[1], abs(x - y))
            stat[2] += x * y < 0
            stat[3] = max(stat[3], abs(abs(x) - abs(y)))
        elif x != y:
            stat[4] += 1
    lines = ["bytes differ" if same_structure else f"bytes differ; structure DIFFERS in {moved}"]
    for key, (n, diff, flips, mag_diff, mismatches) in fields.items():
        if diff or flips or mismatches:
            lines.append(
                f"  {key}: n={n} max_abs_diff={diff:.3e} sign_flips={flips}"
                f" max_abs_mag_diff={mag_diff:.3e}"
                + (f" non_numeric_mismatches={mismatches}" if mismatches else "")
            )
    equal = sum(1 for n, diff, flips, _, m in fields.values() if not (diff or flips or m))
    lines.append(f"  {equal} of {len(fields)} fields equal")
    same_design = not any(m for *_, m in fields.values())
    if not same_design:
        lines[0] += "; discrete fields DIFFER"
    return same_structure and same_design, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="src directory of the base tree")
    parser.add_argument("--head", type=Path, default=ROOT / "src", help="src directory of the head tree")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=SETS)
    parser.add_argument("--repeat", type=int, default=1, help="extra runs of the head tree")
    args = parser.parse_args(argv)

    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    trees.update({f"head{r + 2}": trees["head"] for r in range(args.repeat)})
    ok = True
    work = Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    try:
        for name in args.workload or SETS:
            for i, op in enumerate(ops_of(name, args.seed)):
                tag = f"{name}-op{i}-{op.command}"
                rcs = {label: run_op(src, op, work / label / tag) for label, src in trees.items()}
                same_rc = len(set(rcs.values())) == 1
                ok = ok and same_rc
                print(
                    f"{tag}: exit codes " + " ".join(f"{k}={v}" for k, v in rcs.items())
                    + ("" if same_rc else " DIFFER")
                )
                files = {label: sorted(p.name for p in (work / label / tag).iterdir()) for label in trees}
                if len({tuple(f) for f in files.values()}) != 1:
                    print(f"  different file sets: {files}")
                    ok = False
                    continue
                for fname in files["head"]:
                    base, head = work / "base" / tag / fname, work / "head" / tag / fname
                    same_design, lines = compare_file(base, head)
                    ok = ok and same_design
                    repeats = [
                        (work / label / tag / fname).read_bytes() == head.read_bytes()
                        for label in trees if label.startswith("head") and label != "head"
                    ]
                    if repeats:
                        lines[0] += "; head repeats " + ("identical" if all(repeats) else "DIFFER")
                        ok = ok and all(repeats)
                    print(f"  {fname}: {lines[0]}")
                    for line in lines[1:]:
                        print(f"  {line}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
