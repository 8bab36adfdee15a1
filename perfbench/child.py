"""One benchmark pass in a fresh interpreter.

Usage: python child.py <plan.json> <result.json>

Imports spinboson, makes the warm-up call, records the moment it is ready
(time.monotonic, comparable with the parent's clock), then runs the plan's
CLI invocations back to back and writes the exit code, wall time and CPU
time of each, and the peak resident memory, to <result.json>. A plan
with no operations measures set-up only. With "trace" set, the tracing
wrappers are installed after the warm-up and the spans are returned too.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _invoke(cli, argv: list[str]) -> dict:
    # the pass must go on after any failure of one invocation, so everything
    # an invocation raises is recorded as that invocation's outcome
    try:
        return {"rc": cli.main(argv)}
    except SystemExit as exc:
        return {"rc": exc.code, "error": "SystemExit"}
    except Exception:
        return {"rc": None, "error": traceback.format_exc(limit=4)}


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path) as f:
        plan = json.load(f)
    from spinboson import cli

    warmup = _invoke(cli, plan["warmup"])
    result = {"ready": time.monotonic(), "warmup": warmup}
    tracer = None
    if plan["ops"] and plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    outcomes = []
    for argv in plan["ops"]:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        # cli.main is looked up on every call so the traced wrapper is used
        outcome = _invoke(cli, argv)
        outcome["wall_s"] = time.perf_counter() - wall0
        outcome["cpu_s"] = time.process_time() - cpu0
        outcomes.append(outcome)
    result["outcomes"] = outcomes
    result["run_s"] = sum(o["wall_s"] for o in outcomes)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
