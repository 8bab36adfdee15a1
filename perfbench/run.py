"""Benchmark of the spinboson certification pipeline.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the program is imported from
`src/`). Every pass of a workload runs in a fresh interpreter, one child at
a time, with BLAS pinned to one thread. `--trace 0` times untraced passes
until `--seconds` have gone by and reports the end-to-end metrics;
`--trace 1` alternates untraced and traced passes and reports per-layer
metrics. Outputs of every invocation are checked and hashed outside the
timed phase. The last line of standard output is the JSON result; the
environment record and per-pass details go to `.perfbench_work/results/`.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 3
MIN_PASSES = 3
# a run must end within 180 s; leave room for checks and reporting
DEADLINE_S = 165

END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fidelity_min": "fraction",
}

PER_LAYER = {
    "fockmodel.build_calls": "count",
    "fockmodel.build_s": "s",
    "spectral.eigensolves": "count",
    "spectral.eigensolve_s": "s",
    "spectral.eigensolve_work_gn3": "Gdim3",
    "spectral.track_branches_s": "s",
    "spectral.diagonalize_s": "s",
    "spectral.convergence_scan_s": "s",
    "spectral.solve_useful_ratio": "ratio",
    "control.labelled_spectrum_s": "s",
    "perturbation.fits": "count",
    "perturbation.build_table_s": "s",
    "resonance.scan_s": "s",
    "resonance.scan_comparisons": "count",
    "resonance.coupling_graph_s": "s",
    "resonance.certify_chain_s": "s",
    "resonance.degenerate_check_s": "s",
    "resonance.quadruples": "count",
    "control.step_calls": "count",
    "control.step_s": "s",
    "control.design_transfer_s": "s",
    "control.propagate_s": "s",
    "control.transfer_experiment_s": "s",
    "control.step_useful_ratio": "ratio",
    "cli.invocations": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace_overhead_s": "s",
}

# span name -> per-layer self-time metric
SELF_TIME = {
    "fockmodel.build": "fockmodel.build_s",
    "spectral.eigensolve": "spectral.eigensolve_s",
    "spectral.track_branches": "spectral.track_branches_s",
    "spectral.diagonalize": "spectral.diagonalize_s",
    "spectral.convergence_scan": "spectral.convergence_scan_s",
    "control.labelled_spectrum": "control.labelled_spectrum_s",
    "perturbation.build_table": "perturbation.build_table_s",
    "resonance.scan": "resonance.scan_s",
    "resonance.coupling_graph": "resonance.coupling_graph_s",
    "resonance.certify_chain": "resonance.certify_chain_s",
    "resonance.degenerate_check": "resonance.degenerate_check_s",
    "control.step": "control.step_s",
    "control.design_transfer": "control.design_transfer_s",
    "control.propagate": "control.propagate_s",
    "control.transfer_experiment": "control.transfer_experiment_s",
    "cli.main": "cli.self_s",
}
CALLS = {
    "fockmodel.build": "fockmodel.build_calls",
    "spectral.eigensolve": "spectral.eigensolves",
    "control.step": "control.step_calls",
    "cli.main": "cli.invocations",
}


class Run:
    """Children, checks and failure accounting of one benchmark invocation."""

    def __init__(self, name: str, seed: int, smoke: bool):
        self.deadline = time.monotonic() + DEADLINE_S
        self.ops = workloads.build(name, seed, smoke)
        self.env = dict(os.environ)
        self.env.update(BLAS_ENV)
        self.env.pop("SPINBOSON_OUTPUT_DIR", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        self.reference: dict[int, tuple[str, str | None, dict]] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        configs = WORK / "configs"
        configs.mkdir(parents=True)
        self.warmup = self._argv(configs, "warmup", workloads.WARMUP)
        tags = [f"{i:02d}-{op.command}" for i, op in enumerate(self.ops)]
        self.argvs = [self._argv(configs, tag, op) for tag, op in zip(tags, self.ops)]
        self.out_dirs = [WORK / "out" / tag for tag in tags]

    @staticmethod
    def _argv(configs: Path, tag: str, op: workloads.Op) -> list[str]:
        """Write the invocation's config (outputs go to WORK/out/<tag>)."""
        path = configs / f"{tag}.json"
        config = {**op.config, "output_dir": str(WORK / "out" / tag)}
        path.write_text(json.dumps(config, indent=1))
        return [op.command, "--config", str(path)]

    def child(self, ops: list[list[str]], trace: bool) -> dict | None:
        """Run one fresh child; None (with the reason recorded) if it broke."""
        shutil.rmtree(WORK / "out", ignore_errors=True)
        plan, result = WORK / "plan.json", WORK / "child_result.json"
        plan.write_text(json.dumps({"warmup": self.warmup, "ops": ops, "trace": trace}))
        result.unlink(missing_ok=True)
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(plan), str(result)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(self.deadline - spawn, 1.0),
            )
        except subprocess.TimeoutExpired:
            self.failures.append(f"child killed at the {DEADLINE_S} s deadline of the run")
            return None
        if proc.returncode != 0 or not result.exists():
            self.failures.append(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
            return None
        out = json.loads(result.read_text())
        if out["warmup"].get("rc") != 0:
            self.failures.append(f"warm-up failed: {out['warmup']}")
            return None
        out["setup_s"] = out["ready"] - spawn
        return out

    def timed_pass(self, trace: bool) -> dict | None:
        self.attempted += len(self.ops)
        out = self.child(self.argvs, trace)
        if out is None:
            self.failed += len(self.ops)
            return None
        out["bytes_written"] = 0
        for i, (op, outcome) in enumerate(zip(self.ops, out["outcomes"])):
            reason = self._judge(i, op, outcome, out)
            if reason is not None:
                self.failed += 1
                self.failures.append(f"op {i} {op.command}: {reason}")
        return out

    def _judge(self, i: int, op: workloads.Op, outcome: dict, out: dict) -> str | None:
        if outcome["rc"] != op.expected_rc:
            return f"exit {outcome['rc']} (want {op.expected_rc}) {outcome.get('error', '')}"
        out_dir = self.out_dirs[i]
        digest = hashlib.sha256()
        files = sorted(p for p in out_dir.iterdir() if p.is_file()) if out_dir.is_dir() else []
        for path in files:
            data = path.read_bytes()
            out["bytes_written"] += len(data)
            digest.update(path.name.encode() + b"\0" + data + b"\0")
        if i not in self.reference:
            facts, problem = workloads.check(op, out_dir)
            self.reference[i] = (digest.hexdigest(), problem, facts)
        ref_digest, problem, _ = self.reference[i]
        if digest.hexdigest() != ref_digest:
            return "outputs differ byte-wise from the first pass"
        return problem

    def fidelity_min(self) -> float:
        # the minimum over no transfers is the upper end of the range, 1
        fids = [facts["fidelity"] for _, _, facts in self.reference.values() if facts]
        return min(fids, default=1.0)


def layer_metrics(trace: dict, bytes_written: int) -> dict[str, float]:
    """Per-layer counts and self times (span time minus child-span time)."""
    spans = trace["spans"]
    covered: dict[int, float] = defaultdict(float)
    name_of: dict[int, str] = {}
    parent_of: dict[int, int | None] = {}
    for sid, parent, name, start, end, _ in spans:
        name_of[sid], parent_of[sid] = name, parent
        if parent is not None:
            covered[parent] += end - start

    def inside(sid, name) -> bool:
        while sid is not None:
            if name_of[sid] == name:
                return True
            sid = parent_of[sid]
        return False

    m = {name: 0.0 for name in PER_LAYER}
    advanced = solves_in_tracking = segments = 0
    for sid, parent, name, start, end, attrs in spans:
        attrs = attrs or {}
        if name in SELF_TIME:
            m[SELF_TIME[name]] += end - start - covered[sid]
        if name in CALLS:
            m[CALLS[name]] += 1
        if name == "spectral.eigensolve":
            m["spectral.eigensolve_work_gn3"] += attrs.get("dim", 0) ** 3 / 1e9
            solves_in_tracking += inside(parent, "spectral.track_branches")
        elif name == "spectral.track_branches":
            advanced += attrs.get("points", 1) - 1
        elif name == "resonance.scan":
            m["resonance.scan_comparisons"] += math.comb(math.comb(attrs.get("window", 0), 2), 2)
        elif name == "resonance.degenerate_check":
            m["resonance.quadruples"] += attrs.get("quadruples", 0)
        elif name == "control.design_transfer":
            segments += attrs.get("segments", 0)
    m["perturbation.fits"] = trace["counts"].get("perturbation.fit", 0)
    m["spectral.solve_useful_ratio"] = advanced / solves_in_tracking if solves_in_tracking else 0.0
    steps = m["control.step_calls"]
    m["control.step_useful_ratio"] = segments / steps if steps else 0.0
    m["cli.bytes_written"] = bytes_written
    return m


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "spinboson").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "child_blas_env": BLAS_ENV,
        "numpy_config": numpy.show_config(mode="dicts"),
    }


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="shrunken inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "spinboson" / "cli.py").is_file():
        print(f"no spinboson sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    shutil.rmtree(WORK / "configs", ignore_errors=True)
    run = Run(args.workload, args.seed, args.smoke)
    record = {"workload": args.workload, "trace": args.trace, "smoke": args.smoke}

    setup = []
    if not args.trace:
        # the first child primes bytecode and file caches and is not counted;
        # every pass child adds one more set-up sample below
        for k in range(1 + (1 if args.smoke else SETUP_SAMPLES)):
            out = run.child([], trace=False)
            if out is not None and k > 0:
                setup.append(out["setup_s"])

    untraced, traced = [], []
    start = time.monotonic()
    while True:
        trace = bool(args.trace) and len(untraced) > len(traced)
        began = time.monotonic()
        out = run.timed_pass(trace)
        if out is not None:
            (traced if trace else untraced).append(out)
            setup.append(out["setup_s"])
        now = time.monotonic()
        enough = (untraced and traced) if args.trace else len(untraced) >= MIN_PASSES
        if (enough or run.failed == run.attempted) and now - start >= args.seconds:
            break
        if now + (now - began) > run.deadline:
            break

    if not untraced or (args.trace and not traced) or (not args.trace and not setup):
        print("no pass completed:\n" + "\n".join(run.failures[-5:]), file=sys.stderr)
        return 1

    if args.trace:
        layers = [layer_metrics(p["trace"], p["bytes_written"]) for p in traced]
        values = {k: median([layer[k] for layer in layers]) for k in PER_LAYER}
        values["trace_overhead_s"] = median([p["run_s"] for p in traced]) - median(
            [p["run_s"] for p in untraced]
        )
        units = PER_LAYER
        missing = sorted({m for p in traced for m in p["trace"]["missing"]})
        if missing:
            print("trace could not wrap: " + ", ".join(missing), file=sys.stderr)
    else:
        # each invocation's median over passes, summed: a burst of load from
        # elsewhere that slows one invocation in one pass drops out
        per_op = [list(ops) for ops in zip(*(p["outcomes"] for p in untraced))]
        values = {
            "run_s": sum(median([o["wall_s"] for o in op]) for op in per_op),
            "cpu_s": sum(median([o["cpu_s"] for o in op]) for op in per_op),
            "setup_s": median(setup),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in untraced]),
            "fidelity_min": run.fidelity_min(),
        }
        units = END_TO_END

    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record.update(
        environment=environment(args.seed),
        passes={"untraced": len(untraced), "traced": len(traced)},
        setup_samples_s=setup,
        run_s_samples=[p["run_s"] for p in untraced],
        failures=run.failures,
        result=result,
    )
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str))

    for failure in run.failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced, "
          f"{len(traced)} traced passes; ops attempted {run.attempted}, failed {run.failed}")
    for k, v in metrics.items():
        print(f"  {k:32s} {v['value']:.6g} {v['unit']}")
    print("environment: " + json.dumps(record["environment"], default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
