#!/usr/bin/env python3
"""Self-test of the benchmark.

1. Two traced runs of each workload give identical counts: radial.batches,
   radial.repeat_batches, oracles.eval_g_rows, solver.iterations and every
   other per-layer metric whose unit is ``count``.
2. A probed name that is missing (as after a refactor that renames or
   removes it) is reported as absent, and the traced run still finishes.

Usage (from the repository root):

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Exits 0 when every check holds, 1 otherwise.  Two traced energy_dispatch
runs take about four minutes on a 2-core machine.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("radial.batches", "radial.repeat_batches", "oracles.eval_g_rows",
            "solver.iterations")


def traced_counts(workload, seed):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "30", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def check_repeat(workload, seed):
    first, second = traced_counts(workload, seed), traced_counts(workload, seed)
    missing = [k for k in REQUIRED if k not in first]
    differ = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
    ok = not missing and not differ
    print(f"[{'PASS' if ok else 'FAIL'}] {workload}: counts repeat "
          f"({', '.join(f'{k}={first.get(k)}' for k in REQUIRED)})"
          + (f"; missing {missing}" if missing else "")
          + (f"; differ {differ}" if differ else ""))
    return ok


def check_absent_probe():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import sphrad.cli as cli
    import sphrad.estimates as estimates
    import tracing
    import workloads

    removed = estimates.__dict__.pop("prob_gradient")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        spec = {"command": "eval", "fixture": "halfspace", "dim": 2, "x": 1.0,
                "eps": None, "seed": 1}
        tracer.op = 0
        _, rc, _, err = workloads.call_cli(cli, spec)
        summary = tracer.summary()
    finally:
        tracer.uninstall()
        estimates.prob_gradient = removed
    ok = (tracer.absent == ["estimates.prob_gradient"] and rc == 0 and err is None
          and summary["radial.batches"] == 1 and summary["estimates.grad_calls"] == 0)
    print(f"[{'PASS' if ok else 'FAIL'}] absent probe reported as {tracer.absent}, "
          f"run finished with exit code {rc}")
    return ok


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    names = args.workload or [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]
    results = [check_repeat(w, args.seed) for w in names]
    results.append(check_absent_probe())
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
