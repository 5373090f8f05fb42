#!/usr/bin/env python3
"""Sweep the enlargement radius on the ball and hyperbolic fixtures.

Writes a CSV (fixture, eps, value) showing the estimated probabilities
decreasing toward the plain-set value as eps shrinks, with one fixed
direction set so the ladder is exactly monotone.
"""

import argparse
import csv
import sys

import numpy as np

import sphrad as sp


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="enlargement_sweep.csv")
    parser.add_argument("--n", type=int, default=10000)
    parser.add_argument("--seed", type=int, default=sp.DEFAULT_SEED)
    parser.add_argument("--x", type=float, default=1.0)
    args = parser.parse_args()

    model = sp.build_model(np.zeros(2), np.eye(2))
    dirs = sp.sample_sphere(2, args.n, seed=args.seed, method=sp.SphereMethod.QMC)
    ladder = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0)
    rows = []
    for oracle in (sp.make_ball(np.zeros(2)), sp.make_hyperbolic_set()):
        for eps in ladder:
            est = sp.evaluate(oracle, [args.x], model, dirs, eps=eps)
            rows.append((oracle.name, eps, est.value))
            print(f"{oracle.name:16s} eps={eps:<7g} value={est.value:.6f}")
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["fixture", "eps", "value"])
        writer.writerows(rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
