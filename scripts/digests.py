#!/usr/bin/env python3
"""Check that sphrad's outputs stay byte-identical, against a committed table.

Runs each command below in a fresh process, from an empty working
directory with fixed relative output names, once under
``OPENBLAS_NUM_THREADS=1`` and once under ``=2``, and takes the sha256 of
each output:

- the three ``solve-energy`` artifacts at the defaults;
- the stdout of ``verify`` and of ``verify --quick``;
- the CSV of ``scripts/enlargement_sweep.py``;
- the ``eval`` and ``grad`` JSON of the energy dispatch at (1.5, 11) and
  at (0.35, 10) in every period (that ``grad`` with ``--tie-policy
  min_index``), of the hyperbolic system at x 2.25, the hyperbolic set at
  x 2.25 eps 0 and at x 0.75 eps 0.05, the ball in dimension 8 at x 3
  eps 0.05, and the halfspace in dimension 8 at x 0.7 and the slab in
  dimension 8 at x -0.5 (their ``grad`` with ``--check-fd``);
- the ``--directions-csv`` of the hyperbolic system's ``eval``;
- the exit code and stderr of ``eval --fixture hyperbolic --x 5 --eps
  0.1``, outside the hyperbolic set's range of x.

``--write`` regenerates the table (``scripts/digests.json``) and refuses
when the two thread counts disagree; ``--check`` names each output whose
digest differs from the table.  The digests hold only at the numpy and
scipy versions the table records, so under any other version ``--check``
fails and names both, rather than passing or skipping.  A deliberate output
change shows as changed digests in the table's diff.

    python scripts/digests.py --check
    python scripts/digests.py --write
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import scipy

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLE = os.path.join(ROOT, "scripts", "digests.json")
THREADS = (1, 2)
STDOUT, EXIT_STDERR = "<stdout>", "<exit code and stderr>"

ENERGY_X = "1.5,1.5,1.5,1.5,11,11,11,11"
INTERIOR_X = "0.35,0.35,0.35,0.35,10,10,10,10"
FIXTURES = {        # name: the flags that select the target and the decision
    "energy_x1.5-11": ("--fixture", "energy", "--x", ENERGY_X),
    "energy_x0.35-10": ("--fixture", "energy", "--x", INTERIOR_X),
    "hyperbolic_system_x2.25": ("--fixture", "hyperbolic", "--x", "2.25"),
    "hyperbolic_set_x2.25_eps0": ("--fixture", "hyperbolic", "--x", "2.25", "--eps", "0"),
    "hyperbolic_set_x0.75_eps0.05": ("--fixture", "hyperbolic", "--x", "0.75",
                                     "--eps", "0.05"),
    "ball_dim8_x3_eps0.05": ("--fixture", "ball", "--dim", "8", "--x", "3", "--eps", "0.05"),
    "halfspace_dim8_x0.7": ("--fixture", "halfspace", "--dim", "8", "--x", "0.7"),
    "slab_dim8_x-0.5": ("--fixture", "slab", "--dim", "8", "--x", "-0.5"),
}
GRAD_FLAGS = {"energy_x0.35-10": ("--tie-policy", "min_index"),
              "halfspace_dim8_x0.7": ("--check-fd",), "slab_dim8_x-0.5": ("--check-fd",)}
DIRECTIONS_CSV = "hyperbolic_system_x2.25"


def runs():
    """``(argv, outputs)`` of each command; ``outputs`` maps an output's name
    in the table to its file, relative to the working directory, or to
    STDOUT or EXIT_STDERR."""
    sphrad = (sys.executable, "-m", "sphrad")
    energy = ("trace.jsonl", "iterations.csv", "solution.json")
    out = [
        ((*sphrad, "solve-energy", "--out", "energy"),
         {f"solve-energy/{f}": f"energy/{f}" for f in energy}),
        ((*sphrad, "verify"), {"verify/stdout": STDOUT}),
        ((*sphrad, "verify", "--quick"), {"verify --quick/stdout": STDOUT}),
        ((sys.executable, os.path.join(ROOT, "scripts", "enlargement_sweep.py"),
          "--out", "sweep.csv"), {"enlargement_sweep/csv": "sweep.csv"}),
    ]
    for name, flags in FIXTURES.items():
        for command in ("eval", "grad"):
            argv = (*sphrad, command, *flags, "--out", f"{command}_{name}.json")
            outputs = {f"{command}/{name}.json": f"{command}_{name}.json"}
            if command == "grad":
                argv += GRAD_FLAGS.get(name, ())
            if command == "eval" and name == DIRECTIONS_CSV:
                argv += ("--directions-csv", f"directions_{name}.csv")
                outputs[f"eval/{name}.directions.csv"] = f"directions_{name}.csv"
            out.append((argv, outputs))
    out.append(((*sphrad, "eval", "--fixture", "hyperbolic", "--x", "5", "--eps", "0.1"),
                {"eval/hyperbolic_set_x5_eps0.1.exit": EXIT_STDERR}))
    return out


def digests(threads):
    """sha256 of every output of ``runs()`` under ``threads`` BLAS threads;
    a command that fails where it should not is reported and has no digest."""
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src"),
           "OPENBLAS_NUM_THREADS": str(threads)}
    out = {}
    with tempfile.TemporaryDirectory() as cwd:
        for argv, outputs in runs():
            proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True)
            if proc.returncode != 0 and EXIT_STDERR not in outputs.values():
                print(f"{' '.join(argv[1:])} exited {proc.returncode} under "
                      f"{threads} BLAS threads:\n{proc.stderr.decode()}", file=sys.stderr)
                continue
            for name, source in outputs.items():
                if source == STDOUT:
                    data = proc.stdout
                elif source == EXIT_STDERR:
                    data = f"exit {proc.returncode}\n".encode() + proc.stderr
                else:
                    with open(os.path.join(cwd, source), "rb") as fh:
                        data = fh.read()
                out[name] = hashlib.sha256(data).hexdigest()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="regenerate the table")
    mode.add_argument("--check", action="store_true", help="compare against the table")
    args = parser.parse_args()
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}

    if args.check:
        with open(TABLE, encoding="utf-8") as fh:
            table = json.load(fh)
        pinned = {lib: table[lib] for lib in versions}
        if pinned != versions:
            print(f"digests hold at numpy {pinned['numpy']} and scipy {pinned['scipy']}; "
                  f"this is numpy {versions['numpy']} and scipy {versions['scipy']}",
                  file=sys.stderr)
            return 2
        expected = table["digests"]
    found = {threads: digests(threads) for threads in THREADS}
    names = sorted({name for _, outputs in runs() for name in outputs})

    if args.write:
        moved = [name for name in names if len({found[t].get(name) for t in THREADS}) > 1
                 or name not in found[THREADS[0]]]
        for name in moved:
            print(f"missing or not the same under BLAS threads {THREADS}: {name}",
                  file=sys.stderr)
        if moved:
            return 1
        with open(TABLE, "w", encoding="utf-8") as fh:
            json.dump({**versions, "blas_threads": THREADS,
                       "digests": {name: found[THREADS[0]][name] for name in names}},
                      fh, indent=1)
            fh.write("\n")
        print(f"wrote {len(names)} digests to {os.path.relpath(TABLE, ROOT)}")
        return 0

    differs = [f"{name} (OPENBLAS_NUM_THREADS={t})" for name in sorted({*names, *expected})
               for t in THREADS if found[t].get(name) != expected.get(name)]
    for line in differs:
        print(f"differs: {line}", file=sys.stderr)
    if differs:
        return 1
    print(f"{len(names)} outputs match {os.path.relpath(TABLE, ROOT)} under "
          f"BLAS threads {THREADS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
