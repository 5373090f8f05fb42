#!/usr/bin/env python3
"""Time the layers of the energy dispatch case study and count its work.

Builds ``make_energy_problem()`` at its defaults, solves it once, and at the
solved dispatch reports the median wall time of ``--repeats`` runs of each
layer:

- ``unit_check``: the unit-norm check of the 10k evaluation directions;
- ``closed_form_roots``: ``radial.inequality_hits`` on those directions
  (interior check, every closed-form root, tie classification);
- ``evaluate`` and ``gradient`` at the solved dispatch;
- ``gradient_halfspace_dim8``: ``gradient`` of the halfspace ``z_0 <= x`` in
  dimension 8 at x = 0.7, standard model, 10k QMC directions, where about
  half the directions are infinite;
- ``validate``: the 200k-direction validation;
- ``solve``: the full solve from the starting point;
- ``chi_cdf_10k`` and ``chi_cdf_200k``: ``chi_cdf`` on the exit radii of
  the evaluation and validation sets at the solved dispatch (m = 8), and
  ``chi_cdf_m320`` on 10k radii of a chi law in dimension 320, above the
  tail sum's cutoff, 30% of them infinite.

Counts are deterministic, the same on any machine: ray batches and gradient
calls of one solve, and the ``eval_g`` rows it asks for.  Under
``infeasible_start`` are the same counts for one solve from ``(pw, pg) =
(1, 9.5)`` in every period, where phat is 0.39, so the loop climbs to the
level first.  ``peak_mb`` is the tracemalloc peak, in MiB, of one
``evaluate``, of one ``validate`` and of one ``gradient`` on the 200k
validation set, all at the solved dispatch; it counts what the call
allocates, not the inputs built before it (for ``gradient``, the validation
set's evaluation).  ``--baseline`` takes a file
this script wrote on another checkout and embeds its layers, counts and
peaks, with the ratio baseline / this run per layer.

An oracle section times ``radial.enlarged_hits`` in oracle mode, where the
projection dominates, on 10k QMC directions of the standard model: the
hyperbolic set at x = 0.75 and 2.25 and the ball in dimension 8 at x = 3,
all at eps = 0.05.  It reports the median ms of one call and the
``project`` rows per ray that call asks for.  It also counts the ``project``
rows per finite ray of one ``Evaluation.gradient`` at eps = 0 and 0.05, on
the hyperbolic set at x = 2.25 and the ball in dimension 8 at x = 3: one
projection per finite ray at either eps.  A ray-rows section counts the
``eval_g`` and ``grad_z_g`` rows per ray of one ``evaluate`` on 10k QMC
directions of the standard model, for the systems on the doubling scan:
the slab in dimension 8 at x = -0.5 and the hyperbolic system at x = 2.25.
A periods section times ``closed_form_roots``, ``evaluate`` and
``gradient`` of the dispatch at 4, 24 and 48 periods, at the interior
decision ``(pw, pg) = (0.35, 10)`` in every period, on 10k QMC directions
(the evaluation set of ``make_energy_problem``); it solves nothing.
A chi-cdf sweep times the tail sum of ``sphrad.gaussian`` against the
``gammainc`` path it falls back to, each forced at every swept dimension,
on 10k radii of two kinds: a chi law's, 30% infinite, and uniform on
[0, 1.2 r_max].  It is what ``_SUM_MAX_DIM`` rests on; a checkout without
the tail sum has no sweep.

    PYTHONPATH=src python scripts/bench_layers.py --out bench.json
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")     # one BLAS thread, as perfbench runs

import argparse
import dataclasses
import json
import platform
import statistics
import sys
import time
import tracemalloc

import numpy as np
import scipy

import sphrad as sp
from sphrad import estimates, gaussian, radial, solver


def median_ms(fn, repeats):
    fn()                                            # warm-up, not timed
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def peak_mb(fn):
    """tracemalloc peak of one call of ``fn``, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def solve_counts(problem):
    """Ray batches, gradient calls and eval_g rows of one solve."""
    counts = {"ray_batches": 0, "gradient_calls": 0, "eval_g_rows": 0}
    hits, gradient, eval_g = (estimates.inequality_hits, estimates.Evaluation.gradient,
                              problem.system.eval_g)

    def counted_hits(*args, **kwargs):
        counts["ray_batches"] += 1
        return hits(*args, **kwargs)

    def counted_gradient(self, *args, **kwargs):
        counts["gradient_calls"] += 1
        return gradient(self, *args, **kwargs)

    def counted_eval_g(i, x, Z):
        counts["eval_g_rows"] += Z.shape[0]
        return eval_g(i, x, Z)

    system = dataclasses.replace(problem.system, eval_g=counted_eval_g)
    estimates.inequality_hits, estimates.Evaluation.gradient = counted_hits, counted_gradient
    try:
        x, trace = solver.solve(dataclasses.replace(problem, system=system))
    finally:
        estimates.inequality_hits, estimates.Evaluation.gradient = hits, gradient
    return x, trace, counts


INFEASIBLE_START = (1.0, 9.5)      # (wind, generation) in every period


ORACLE_CASES = {
    "hyperbolic_set_x0.75": (sp.make_hyperbolic_set, 0.75, 2),
    "hyperbolic_set_x2.25": (sp.make_hyperbolic_set, 2.25, 2),
    "ball_dim8_x3": (lambda: sp.make_ball(np.zeros(8)), 3.0, 8),
}
ORACLE_EPS = 0.05


def counted_project(oracle):
    """``oracle`` with a ``project`` that appends its row count to the returned list."""
    rows = []

    def project(x_, Z):
        rows.append(Z.shape[0])
        return oracle.project(x_, Z)

    return dataclasses.replace(oracle, project=project), rows


def oracle_layers(repeats):
    """Median ms of one ``enlarged_hits`` call and its ``project`` rows per ray."""
    out = {}
    for name, (make, x, m) in ORACLE_CASES.items():
        oracle = make()
        V = sp.sample_sphere(m, 10000, seed=sp.DEFAULT_SEED).directions
        model = sp.build_model(np.zeros(m), np.eye(m))
        counted, rows = counted_project(oracle)
        radial.enlarged_hits(counted, [x], V, ORACLE_EPS, model)
        ms = median_ms(lambda: radial.enlarged_hits(oracle, [x], V, ORACLE_EPS, model), repeats)
        out[name] = {"enlarged_hits_ms": round(ms, 4),
                     "project_rows_per_ray": round(sum(rows) / V.shape[0], 4)}
    return out


GRADIENT_CASES = ("hyperbolic_set_x2.25", "ball_dim8_x3")
GRADIENT_EPS = (0.0, ORACLE_EPS)


def gradient_project_rows():
    """``project`` rows per finite ray of one ``gradient()`` at each GRADIENT_EPS."""
    out = {}
    for name in GRADIENT_CASES:
        make, x, m = ORACLE_CASES[name]
        counted, rows = counted_project(make())
        dirs = sp.sample_sphere(m, 10000, seed=sp.DEFAULT_SEED)
        model = sp.build_model(np.zeros(m), np.eye(m))
        out[name] = {}
        for eps in GRADIENT_EPS:
            ev = estimates.evaluate(counted, [x], model, dirs, eps=eps)
            rows.clear()
            ev.gradient()
            out[name][f"eps{eps:g}"] = round(sum(rows) / (dirs.n - ev.n_infinite), 4)
    return out


RAY_CASES = {
    "slab_dim8_x-0.5": (lambda: sp.make_slab(np.eye(8)[0], lambda x: x[0],
                                             lambda x: np.array([1.0])), -0.5, 8),
    "hyperbolic_system_x2.25": (sp.make_hyperbolic_system, 2.25, 2),
}


def ray_rows():
    """``eval_g`` and ``grad_z_g`` rows per ray of one 10k ``evaluate``."""
    out = {}
    for name, (make, x, m) in RAY_CASES.items():
        system = make()
        rows = {"eval_g": 0, "grad_z_g": 0}

        def counting(callback, fn):
            def counted(i, x_, Z):
                rows[callback] += Z.shape[0]
                return fn(i, x_, Z)
            return counted

        counted = dataclasses.replace(system, **{cb: counting(cb, getattr(system, cb))
                                                 for cb in rows})
        dirs = sp.sample_sphere(m, 10000, seed=sp.DEFAULT_SEED)
        estimates.evaluate(counted, [x], sp.build_model(np.zeros(m), np.eye(m)), dirs)
        out[name] = {f"{cb}_rows_per_ray": round(n / dirs.n, 4) for cb, n in rows.items()}
    return out


PERIODS = (4, 24, 48)
PERIODS_DECISION = (0.35, 10.0)     # (wind, generation) in every period


def period_layers(repeats):
    """Median ms of the dispatch's layers at each of PERIODS, and its value."""
    out = {}
    for T in PERIODS:
        params = sp.EnergyParams(periods=T)
        system, model = sp.make_energy_system(params), sp.build_energy_covariance(params)
        dirs = sp.sample_sphere(model.dim, 10000, seed=sp.DEFAULT_SEED)
        x = np.repeat(PERIODS_DECISION, T)
        ev = estimates.evaluate(system, x, model, dirs)
        layers = {
            "closed_form_roots": lambda: radial.inequality_hits(system, x, dirs.directions, model),
            "evaluate": lambda: estimates.evaluate(system, x, model, dirs),
            "gradient": ev.gradient,
        }
        out[str(T)] = {"value": ev.value, **{name: round(median_ms(fn, repeats), 4)
                                               for name, fn in layers.items()}}
    return out


ABOVE_DIM = 320                 # a chi dimension above the tail sum's cutoff
SWEEP_DIMS = (8, 64, 128, 192, 256, 288)    # the sum overflows from m = 296


def chi_radii(m, rng, n=10000):
    """``n`` radii of a chi law in dimension ``m``, 30% of them infinite."""
    r = np.sqrt(rng.chisquare(m, n))
    r[rng.random(n) < 0.3] = np.inf
    return r


def chi_sweep(repeats):
    """Median ms of the chi cdf's tail sum and of its ``gammainc`` path, both
    forced through ``_SUM_MAX_DIM``, at each dimension of SWEEP_DIMS."""
    if not hasattr(gaussian, "_tail_sums"):
        return {}
    rng = np.random.default_rng(13)
    radii = {m: {"chi": chi_radii(m, rng),
                 "uniform": rng.uniform(0.0, 1.2 * sp.chi_cutoff(m), 10000)}
             for m in SWEEP_DIMS}
    saved, out = gaussian._SUM_MAX_DIM, {}
    try:
        for m in SWEEP_DIMS:
            rec = {}
            for kind, r in radii[m].items():
                ms = {}
                for path, cutoff in (("sum_ms", m), ("gammainc_ms", m - 1)):
                    gaussian._SUM_MAX_DIM = cutoff
                    ms[path] = round(median_ms(lambda: gaussian._chi_cdf(m, r), repeats), 4)
                rec[kind] = {**ms, "ratio": round(ms["gammainc_ms"] / ms["sum_ms"], 3)}
            out[str(m)] = rec
    finally:
        gaussian._SUM_MAX_DIM = saved
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--repeats", type=int, default=15, help="timed runs per layer")
    parser.add_argument("--baseline", help="a file this script wrote on another checkout")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    problem = sp.make_energy_problem()
    x, trace, counts = solve_counts(problem)
    T = problem.cost.size // 2
    start = np.repeat(INFEASIBLE_START, T)
    counts["infeasible_start"] = solve_counts(dataclasses.replace(problem, start=start))[2]
    system, model, dirs = problem.system, problem.model, problem.eval_dirs
    V = dirs.directions
    ev = estimates.evaluate(system, x, model, dirs)
    ev_validate = estimates.evaluate(system, x, model, problem.validate_dirs)
    halfspace, model8 = sp.make_halfspace(np.eye(8)[0]), sp.build_model(np.zeros(8), np.eye(8))
    ev_half = estimates.evaluate(halfspace, [0.7], model8,
                                 sp.sample_sphere(8, 10000, seed=sp.DEFAULT_SEED))
    rho_above = chi_radii(ABOVE_DIM, np.random.default_rng(7))
    layers = {
        "unit_check": lambda: radial._unit_rows(x, V),
        "closed_form_roots": lambda: radial.inequality_hits(system, x, V, model),
        "evaluate": lambda: estimates.evaluate(system, x, model, dirs),
        "gradient": lambda: ev.gradient(),
        "gradient_halfspace_dim8": lambda: ev_half.gradient(),
        "validate": lambda: solver.validate(x, problem),
        "solve": lambda: solver.solve(problem),
        "chi_cdf_10k": lambda: sp.chi_cdf(model.dim, ev.hits.rho),
        "chi_cdf_200k": lambda: sp.chi_cdf(model.dim, ev_validate.hits.rho),
        f"chi_cdf_m{ABOVE_DIM}": lambda: sp.chi_cdf(ABOVE_DIM, rho_above),
    }
    layers_ms = {name: round(median_ms(fn, args.repeats), 4) for name, fn in layers.items()}
    for name, ms in layers_ms.items():
        print(f"{name:18s} {ms:10.3f} ms")
    print(f"counts: {counts}")
    peaks = {"evaluate": peak_mb(layers["evaluate"]), "validate": peak_mb(layers["validate"]),
             "gradient": peak_mb(ev_validate.gradient)}
    print(f"peak_mb: {peaks}")
    oracle = oracle_layers(args.repeats)
    for name, rec in oracle.items():
        print(f"{name:22s} {rec['enlarged_hits_ms']:10.3f} ms "
              f"{rec['project_rows_per_ray']:7.3f} project rows/ray")
    grad_rows = gradient_project_rows()
    for name, rec in grad_rows.items():
        print(f"{name:22s} gradient() " + "  ".join(
            f"{eps} {n:.3f}" for eps, n in rec.items()) + " project rows/finite ray")
    rays = ray_rows()
    for name, rec in rays.items():
        print(f"{name:24s} {rec['eval_g_rows_per_ray']:7.3f} eval_g "
              f"{rec['grad_z_g_rows_per_ray']:7.3f} grad_z_g rows/ray")
    periods = period_layers(args.repeats)
    for T, rec in periods.items():
        print(f"periods={T:>3s} " + "  ".join(f"{name} {ms:.3f} ms" for name, ms in rec.items()
                                              if name != "value"))
    sweep = chi_sweep(args.repeats)
    for m, rec in sweep.items():
        print(f"chi_cdf m={m:>4s} " + "  ".join(
            f"{kind} sum {r['sum_ms']:.3f} gammainc {r['gammainc_ms']:.3f} ms"
            for kind, r in rec.items()))

    report = {
        "workload": "energy_dispatch: make_energy_problem() defaults, layers at the "
                    "solved dispatch",
        "machine": {"nproc": os.cpu_count(), "machine": platform.machine(),
                    "python": platform.python_version(), "numpy": np.__version__,
                    "scipy": scipy.__version__,
                    "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]},
        "repeats": args.repeats,
        "solve": {"status": trace.status, "iterations": len(trace.records) - 1,
                  "cost": float(problem.cost @ x)},
        "counts": counts,
        "layers_ms": layers_ms,
        "peak_mb": peaks,
        "oracle": {"eps": ORACLE_EPS, "n": 10000, "cases": oracle,
                   "gradient_project_rows_per_finite_ray": grad_rows},
        "ray_rows": {"n": 10000, "cases": rays},
        "periods": {"decision": PERIODS_DECISION, "n": 10000, "cases": periods},
        "chi_cdf_sweep": {"n": 10000, "dims": sweep},
    }
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as fh:
            base = json.load(fh)
        # Files from before the oracle, ray-rows or periods section have none.
        report["baseline"] = {k: base[k] for k in ("machine", "repeats", "solve", "counts",
                                                   "layers_ms", "peak_mb", "oracle", "ray_rows",
                                                   "periods")
                              if k in base}
        report["speedup"] = {name: round(base["layers_ms"][name] / ms, 3)
                             for name, ms in layers_ms.items() if name in base["layers_ms"]}
        if "oracle" in base:
            for name, rec in oracle.items():
                report["speedup"][f"enlarged_hits/{name}"] = round(
                    base["oracle"]["cases"][name]["enlarged_hits_ms"] / rec["enlarged_hits_ms"], 3)
        for T, rec in base.get("periods", {}).get("cases", {}).items():
            for name, ms in rec.items():
                if name != "value":
                    report["speedup"][f"periods/{T}/{name}"] = round(
                        ms / periods[T][name], 3)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
