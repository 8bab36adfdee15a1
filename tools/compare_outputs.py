"""Compare the CLI outputs of two source trees on the benchmark's operations.

    python3 tools/compare_outputs.py --base <other checkout>/src --seed 101

Builds every operation of `perfbench/workloads.py` for the seed and runs
each one as `spinboson <command> --config <file>` in a fresh interpreter,
once against each source tree (`--head` defaults to this checkout's `src`),
with BLAS pinned to one thread. For every output file it prints both exit
codes, whether the bytes are equal and, per field (CSV column or JSON key
path), the largest absolute difference and the number of sign flips.
`--repeat N` runs the head tree N more times and reports whether its
repeats are byte-identical. Exits 1 when a head repeat differs or the
trees write different sets of files, else 0.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

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


def compare_file(base: Path, head: Path) -> list[str]:
    """One summary line for the file, then one per field that is not equal."""
    if base.read_bytes() == head.read_bytes():
        return ["bytes equal"]
    a, b = flatten(base), flatten(head)
    if [k for k, _ in a] != [k for k, _ in b]:
        return ["bytes differ; structure differs"]
    fields: dict[str, list] = {}
    for (key, x), (_, y) in zip(a, b):
        stat = fields.setdefault(key, [0, 0.0, 0, 0])  # count, max diff, flips, mismatches
        stat[0] += 1
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        if numeric:
            stat[1] = max(stat[1], abs(x - y))
            stat[2] += x * y < 0
        elif x != y:
            stat[3] += 1
    lines = ["bytes differ"]
    for key, (n, diff, flips, mismatches) in fields.items():
        if diff or flips or mismatches:
            lines.append(
                f"  {key}: n={n} max_abs_diff={diff:.3e} sign_flips={flips}"
                + (f" non_numeric_mismatches={mismatches}" if mismatches else "")
            )
    equal = sum(1 for n, diff, flips, m in fields.values() if not (diff or flips or m))
    lines.append(f"  {equal} of {len(fields)} fields equal")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="src directory of the base tree")
    parser.add_argument("--head", type=Path, default=ROOT / "src", help="src directory of the head tree")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=workloads.NAMES)
    parser.add_argument("--repeat", type=int, default=1, help="extra runs of the head tree")
    args = parser.parse_args(argv)

    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    trees.update({f"head{r + 2}": trees["head"] for r in range(args.repeat)})
    ok = True
    work = Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    try:
        for name in args.workload or workloads.NAMES:
            for i, op in enumerate(workloads.build(name, args.seed)):
                tag = f"{name}-op{i}-{op.command}"
                rcs = {label: run_op(src, op, work / label / tag) for label, src in trees.items()}
                print(f"{tag}: exit codes " + " ".join(f"{k}={v}" for k, v in rcs.items()))
                files = {label: sorted(p.name for p in (work / label / tag).iterdir()) for label in trees}
                if len({tuple(f) for f in files.values()}) != 1:
                    print(f"  different file sets: {files}")
                    ok = False
                    continue
                for fname in files["head"]:
                    base, head = work / "base" / tag / fname, work / "head" / tag / fname
                    lines = compare_file(base, head)
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
