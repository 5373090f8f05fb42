#!/usr/bin/env python3
"""sphrad benchmark: one workload, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload energy_dispatch --seed 1 --seconds 30 --trace 0

Workloads, metrics and bounds are listed in BENCHMARK.json; their
definitions are in perfbench/README.md.  With ``--trace 0`` the last line
of standard output is a JSON object holding every end-to-end metric; with
``--trace 1`` it holds every per-layer metric from a traced replay.  The
line before it is the full report: the environment, the seeds, the
correctness checks and, when traced, the per-operation counts.  Both are
also written under ``.perfbench/``.
"""

import os

# One caller, one thread: BLAS pools would add threads on a 2-core box.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_RUNS = 3


def parse_args(names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def measure_setup(workload, seed):
    """Median over fresh interpreters of import time plus build time."""
    totals = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                               str(seed)], capture_output=True, text=True, timeout=120,
                              check=True)
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        totals.append(rec["import_s"] + rec["build_s"])
    return statistics.median(totals), totals


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def environment(args):
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args([w["name"] for w in spec["workloads"]])
    if not (SRC / "sphrad" / "__init__.py").is_file():
        sys.stderr.write(f"no sphrad sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    import sphrad
    if Path(sphrad.__file__).resolve().parent != (SRC / "sphrad").resolve():
        sys.stderr.write(f"imported sphrad from {sphrad.__file__}, not {SRC}\n")
        return 2
    import workloads

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(args)
    if args.workload == "energy_dispatch":
        env["validate_seed"] = workloads.energy_validate_seed(args.seed)
        measured, attempted, failed, report, probe = workloads.run_energy(
            args.seed, args.seconds, args.trace, stem)
    else:
        measured, attempted, failed, report, probe = workloads.run_sweep(
            args.workload, args.seed, args.seconds, args.trace, stem)
    if args.trace:
        wanted = spec["per_layer"]
        # A layer whose probed names are absent at this commit reads zero.
        measured = {m["name"]: measured.get(m["name"], 0) for m in wanted}
    else:
        wanted = spec["end_to_end"]
        measured["setup_s"], report["setup_runs_s"] = measure_setup(args.workload, args.seed)
    # Timings are reported at the reference machine speed (see SpeedProbe).
    report["raw"] = dict(measured)
    report["speed_factor"] = factor = probe.factor()
    for m in wanted:
        if m["unit"] in ("s", "ms"):
            measured[m["name"]] *= factor
        elif m["unit"] == "1/s":
            measured[m["name"]] /= factor
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = {"env": env, "failed_frac": failed / attempted, **report, "result": result}
    stem.with_name(stem.name + ".json").write_text(json.dumps(report, indent=1) + "\n",
                                                   encoding="utf-8")
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
