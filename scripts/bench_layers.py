#!/usr/bin/env python3
"""Time the layers of the energy dispatch case study and count its work.

Every timing is an interleaved pair.  ``--baseline-src`` (by default this
checkout's own ``src/``) names another checkout whose ``sphrad`` is
imported beside this one; each case is built from both and timed one call
of each in turn, which goes first alternating, so a change of machine speed
during the run lands on both sides.  Each case reports both medians (ms),
their ratio baseline / this and in how many pairs this checkout's call was
the faster.  The ``interleaved`` section's cases, on 10k QMC directions of
the standard model unless named otherwise:

- ``enlarged_hits/<case>``: ``radial.enlarged_hits`` in oracle mode, where
  the projection dominates: the hyperbolic set at x = 0.75 and 2.25, the
  ball in dimension 8 at x = 3 and in dimension 2 at x = 1.5, all at
  eps = 0.05, and the hyperbolic set at x = 0.75 and eps = 0;
- ``inequality_hits/<case>``: ``radial.inequality_hits`` on the doubling
  scan: the slab in dimensions 2 and 8 at x = -0.5 and the hyperbolic
  system at x = 2.25;
- ``gradient/<case>``: ``Evaluation.gradient`` of each of those cases and
  of the halfspace ``z_0 <= x`` in dimension 8 at x = 0.7, where about
  half the directions are infinite;
- ``inequality_hits``, ``evaluate`` and ``gradient`` of the dispatch at 4,
  24 and 48 periods (``energy_T<T>``), at the interior decision
  ``(pw, pg) = (0.35, 10)`` in every period on the 10k QMC evaluation set
  of ``make_energy_problem``, and ``unit_check/energy_T4``, the unit-norm
  check of that set's directions;
- ``solve_validate/energy``: one ``solve`` of ``make_energy_problem()`` and
  the 200k ``validate`` of its result; ``validate/energy``: that
  ``validate`` alone, at the solved dispatch;
- ``chi_cdf/m8_n10k`` and ``chi_cdf/m8_n200k``: ``chi_cdf`` on the exit
  radii of the evaluation and validation sets at the solved dispatch, and
  ``chi_cdf/m320_n10k`` on 10k radii of a chi law in dimension 320, above
  the tail sum's cutoff, 30% of them infinite;
- ``sample_sphere/m<m>_n<n>``: QMC ``sample_sphere`` at (m, n) = (2, 10k),
  (8, 10k), (8, 200k) and (96, 10k).

The ``import`` section times ``import sphrad.cli`` in fresh interpreters,
the two ``src`` trees in turn, 9 per side (3 under ``--repeats 1``).  The
``chi_cdf_sweep`` section pairs, in this checkout, the chi cdf's
``gammainc`` path (the baseline side) with its tail sum, each forced
through ``_SUM_MAX_DIM`` at every swept dimension, on 10k radii of two
kinds: a chi law's, 30% infinite, and uniform on [0, 1.2 r_max].  It is
what ``_SUM_MAX_DIM`` rests on.

Counts are deterministic, the same on any machine, and are taken in this
checkout only: ray batches and gradient calls of one solve, and the
``t(x)`` calls and ``eval_g`` rows it asks for.  Under ``infeasible_start``
are the same counts for one solve from ``(pw, pg) = (1, 9.5)`` in every
period, where phat is 0.39, so the loop climbs to the level first.
``peak_mb`` is the tracemalloc peak, in MiB, of one ``evaluate``, of one
``validate`` and of one ``gradient`` on the 200k validation set, all at the
solved dispatch; it counts what the call allocates, not the inputs built
before it (for ``gradient``, the validation set's evaluation).  The
``oracle`` section gives each oracle case's eps and the ``project`` calls
(the ray rounds of the batch) and rows per ray that one ray solve asks
for, and the ``project`` rows per finite ray of one
``Evaluation.gradient`` at eps = 0 and 0.05 on the hyperbolic set at
x = 2.25 and the ball in dimension 8 at x = 3: one projection per finite
ray at either eps.  The ``scan`` section gives each scan case's
``eval_g`` calls and ``eval_g`` and ``grad_z_g`` rows per ray.

    PYTHONPATH=src python scripts/bench_layers.py --out bench.json
    PYTHONPATH=src python scripts/bench_layers.py --out bench.json \
        --baseline-src ../parent/src
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")     # one BLAS thread, as perfbench runs

import argparse
import dataclasses
import functools
import importlib.util
import json
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import scipy

import sphrad as sp
from sphrad import estimates, gaussian, solver


def peak_mb(fn):
    """tracemalloc peak of one call of ``fn``, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def solve_counts(problem):
    """Ray batches, gradient calls, t(x) calls and eval_g rows of one solve."""
    counts = {"ray_batches": 0, "gradient_calls": 0, "level_calls": 0, "eval_g_rows": 0}
    hits, gradient, eval_g = (estimates.inequality_hits, estimates.Evaluation.gradient,
                              problem.system.eval_g)
    W, level = problem.system.halfspaces

    def counted_hits(*args, **kwargs):
        counts["ray_batches"] += 1
        return hits(*args, **kwargs)

    def counted_gradient(self, *args, **kwargs):
        counts["gradient_calls"] += 1
        return gradient(self, *args, **kwargs)

    def counted_eval_g(i, x, Z):
        counts["eval_g_rows"] += Z.shape[0]
        return eval_g(i, x, Z)

    def counted_level(x):
        counts["level_calls"] += 1
        return level(x)

    system = dataclasses.replace(problem.system, eval_g=counted_eval_g,
                                 halfspaces=(W, counted_level))
    estimates.inequality_hits, estimates.Evaluation.gradient = counted_hits, counted_gradient
    try:
        x, trace = solver.solve(dataclasses.replace(problem, system=system))
    finally:
        estimates.inequality_hits, estimates.Evaluation.gradient = hits, gradient
    return x, trace, counts


INFEASIBLE_START = (1.0, 9.5)      # (wind, generation) in every period


# Each case builds its target from a ``sphrad`` package, so the interleaved
# timing can build the same case from another checkout.
# (make, x, m, eps); the scan cases have no eps.
ORACLE_CASES = {
    "hyperbolic_set_x0.75": (lambda pkg: pkg.make_hyperbolic_set(), 0.75, 2, 0.05),
    "hyperbolic_set_x2.25": (lambda pkg: pkg.make_hyperbolic_set(), 2.25, 2, 0.05),
    "ball_dim8_x3": (lambda pkg: pkg.make_ball(np.zeros(8)), 3.0, 8, 0.05),
    "ball_dim2_x1.5": (lambda pkg: pkg.make_ball(np.zeros(2)), 1.5, 2, 0.05),
    "hyperbolic_set_x0.75_eps0": (lambda pkg: pkg.make_hyperbolic_set(), 0.75, 2, 0.0),
}
SCAN_CASES = {
    "slab_dim2_x-0.5": (lambda pkg: pkg.make_slab(np.eye(2)[0], lambda x: x[0],
                                                  lambda x: np.array([1.0])), -0.5, 2, None),
    "slab_dim8_x-0.5": (lambda pkg: pkg.make_slab(np.eye(8)[0], lambda x: x[0],
                                                  lambda x: np.array([1.0])), -0.5, 8, None),
    "hyperbolic_system_x2.25": (lambda pkg: pkg.make_hyperbolic_system(), 2.25, 2, None),
}
HALFSPACE_CASE = {      # timed by its gradient only
    "halfspace_dim8_x0.7": (lambda pkg: pkg.make_halfspace(np.eye(8)[0]), 0.7, 8, None),
}
SPHERE_CASES = ((2, 10000), (8, 10000), (8, 200000), (96, 10000))     # (m, n), QMC


def ray_calls(pkg):
    """One 10k-direction ray solve per oracle and scan case, built from ``pkg``
    on the standard model, keyed ``enlarged_hits/<case>`` and
    ``inequality_hits/<case>``; each is ``(call, target)`` with ``call(target)``."""
    def enlarged(target, x, V, eps, model):
        return pkg.radial.enlarged_hits(target, [x], V, eps, model)

    def scan(target, x, V, eps, model):
        return pkg.radial.inequality_hits(target, [x], V, model)

    calls = {}
    for solve, cases in ((enlarged, ORACLE_CASES), (scan, SCAN_CASES)):
        for name, (make, x, m, eps) in cases.items():
            V = pkg.sample_sphere(m, 10000, seed=pkg.DEFAULT_SEED).directions
            model = pkg.build_model(np.zeros(m), np.eye(m))
            layer = "enlarged_hits" if solve is enlarged else "inequality_hits"
            calls[f"{layer}/{name}"] = (functools.partial(solve, x=x, V=V, eps=eps, model=model),
                                        make(pkg))
    return calls


def gradient_calls(pkg):
    """``Evaluation.gradient`` of each oracle, scan and halfspace case, built
    from ``pkg`` on 10k QMC directions of the standard model and keyed
    ``gradient/<case>``; each call reads one evaluation made here."""
    calls = {}
    for name, (make, x, m, eps) in {**ORACLE_CASES, **SCAN_CASES, **HALFSPACE_CASE}.items():
        dirs = pkg.sample_sphere(m, 10000, seed=pkg.DEFAULT_SEED)
        model = pkg.build_model(np.zeros(m), np.eye(m))
        calls[f"gradient/{name}"] = pkg.evaluate(make(pkg), [x], model, dirs, eps=eps).gradient
    return calls


def sphere_calls(pkg):
    """QMC ``sample_sphere`` of ``pkg`` at each ``SPHERE_CASES`` size, keyed
    ``sample_sphere/m<m>_n<n>``."""
    return {f"sample_sphere/m{m}_n{n}": functools.partial(pkg.sample_sphere, m, n,
                                                          seed=pkg.DEFAULT_SEED)
            for m, n in SPHERE_CASES}


def counted_project(oracle):
    """``oracle`` with a ``project`` that appends its row count to the returned list."""
    rows = []

    def project(x_, Z):
        rows.append(Z.shape[0])
        return oracle.project(x_, Z)

    return dataclasses.replace(oracle, project=project), rows


def counted_rows(system, rows):
    """``system`` with ``eval_g`` and ``grad_z_g`` appending each call's row
    count to the list ``rows[name]``."""
    def counting(callback, fn):
        def counted(i, x_, Z):
            rows[callback].append(Z.shape[0])
            return fn(i, x_, Z)
        return counted

    return dataclasses.replace(system, **{cb: counting(cb, getattr(system, cb)) for cb in rows})


def ray_counts():
    """The ``project`` calls and rows per ray (oracle cases, with their eps)
    or the ``eval_g`` calls and the ``eval_g`` and ``grad_z_g`` rows per ray
    (scan cases) that one call of each case of ``ray_calls`` asks for, in
    two sections: ``oracle`` and ``scan``.  A call is one ray round of the
    batch: a scan point or a Newton step."""
    out = {"oracle": {}, "scan": {}}
    for key, (call, target) in ray_calls(sp).items():
        layer, name = key.split("/")
        if layer == "enlarged_hits":
            counted, rows = counted_project(target)
            call(counted)
            out["oracle"][name] = {"eps": call.keywords["eps"], "project_calls": len(rows),
                                   "project_rows_per_ray": round(sum(rows) / 10000, 4)}
        else:
            rows = {"eval_g": [], "grad_z_g": []}
            call(counted_rows(target, rows))
            out["scan"][name] = {"eval_g_calls": len(rows["eval_g"]),
                                 **{f"{cb}_rows_per_ray": round(sum(n) / 10000, 4)
                                    for cb, n in rows.items()}}
    return out["oracle"], out["scan"]


SRC = os.path.dirname(os.path.dirname(sp.__file__))        # this checkout's src/


def load_sphrad(src):
    """The ``sphrad`` package of another checkout's ``src``, imported as
    ``sphrad_baseline`` beside this one."""
    path = os.path.join(os.path.abspath(src), "sphrad")
    spec = importlib.util.spec_from_file_location(
        "sphrad_baseline", os.path.join(path, "__init__.py"), submodule_search_locations=[path])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = pkg
    spec.loader.exec_module(pkg)
    return pkg


def compare(times):
    """Medians (in ms) of the baseline's and this checkout's ``times``,
    their ratio baseline / this, and in how many pairs this one was faster."""
    base_ms, ms = (1e3 * statistics.median(t) for t in times)
    return {"baseline_ms": round(base_ms, 4), "ms": round(ms, 4),
            "speedup": round(base_ms / ms, 3),
            "faster_pairs": f"{sum(b > a for b, a in zip(*times))}/{len(times[0])}"}


def elapsed(fn):
    """Seconds one call of ``fn`` takes."""
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def pairs(base, mine, repeats, seconds=elapsed):
    """``base`` and ``mine`` timed ``repeats`` times each by ``seconds``, one
    call of each in turn (which goes first alternates) after one untimed
    call of each, so a change of machine speed during the run lands on
    both, as ``compare`` gives it."""
    calls, times = (base, mine), ([], [])
    for fn in calls:
        seconds(fn)                                 # warm-up, not kept
    for k in range(repeats):
        for j in ((0, 1) if k % 2 == 0 else (1, 0)):
            times[j].append(seconds(calls[j]))
    return compare(times)


def interleaved_layers(baseline, repeats):
    """Each case of ``ray_calls``, ``gradient_calls``, ``energy_calls`` and
    ``sphere_calls``, built from ``baseline`` and from this checkout and
    timed by ``pairs``."""
    theirs, mine = ({**{key: functools.partial(call, target)
                        for key, (call, target) in ray_calls(pkg).items()},
                     **gradient_calls(pkg), **energy_calls(pkg), **sphere_calls(pkg)}
                    for pkg in (baseline, sp))
    return {key: pairs(theirs[key], call, repeats) for key, call in mine.items()}


IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import sphrad.cli; "
                "print(time.perf_counter() - t0)")


def import_seconds(src):
    """Seconds ``import sphrad.cli`` takes in a fresh interpreter on ``src``."""
    return float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                                capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": src}).stdout)


def import_times(baseline_src, runs):
    """``import sphrad.cli`` in fresh interpreters from ``baseline_src`` and
    from this checkout's ``src``, ``runs`` times each, timed by ``pairs``."""
    probes = (functools.partial(import_seconds, os.path.abspath(baseline_src)),
              functools.partial(import_seconds, SRC))
    return {"runs": runs, **pairs(*probes, runs, seconds=lambda probe: probe())}


GRADIENT_CASES = ("hyperbolic_set_x2.25", "ball_dim8_x3")
GRADIENT_EPS = (0.0, 0.05)


def gradient_project_rows():
    """``project`` rows per finite ray of one ``gradient()`` at each GRADIENT_EPS."""
    out = {}
    for name in GRADIENT_CASES:
        make, x, m, _ = ORACLE_CASES[name]
        counted, rows = counted_project(make(sp))
        dirs = sp.sample_sphere(m, 10000, seed=sp.DEFAULT_SEED)
        model = sp.build_model(np.zeros(m), np.eye(m))
        out[name] = {}
        for eps in GRADIENT_EPS:
            ev = estimates.evaluate(counted, [x], model, dirs, eps=eps)
            rows.clear()
            ev.gradient()
            out[name][f"eps{eps:g}"] = round(sum(rows) / (dirs.n - ev.n_infinite), 4)
    return out


PERIODS = (4, 24, 48)
PERIODS_DECISION = (0.35, 10.0)     # (wind, generation) in every period
ABOVE_DIM = 320                 # a chi dimension above the tail sum's cutoff
SWEEP_DIMS = (8, 64, 128, 192, 256, 288)    # the sum overflows from m = 296


def chi_radii(m, rng, n=10000):
    """``n`` radii of a chi law in dimension ``m``, 30% of them infinite."""
    r = np.sqrt(rng.chisquare(m, n))
    r[rng.random(n) < 0.3] = np.inf
    return r


def energy_calls(pkg):
    """Zero-argument calls of the dispatch built from ``pkg``:
    ``inequality_hits``, ``evaluate`` and ``gradient`` at PERIODS_DECISION
    at each of PERIODS, keyed ``<layer>/energy_T<T>`` (10k QMC directions);
    ``solve_validate/energy``: one ``solve`` of ``make_energy_problem()``
    and the 200k ``validate`` of its result; and at that solved dispatch
    ``validate/energy``, ``unit_check/energy_T4`` (the unit-norm check of
    the evaluation set) and ``chi_cdf`` on the exit radii of the evaluation
    and validation sets, keyed ``chi_cdf/m8_n10k`` and ``chi_cdf/m8_n200k``.
    ``chi_cdf/m320_n10k`` is ``chi_cdf`` on ``chi_radii`` in ABOVE_DIM."""
    calls = {}
    for T in PERIODS:
        params = pkg.EnergyParams(periods=T)
        system, model = pkg.make_energy_system(params), pkg.build_energy_covariance(params)
        dirs = pkg.sample_sphere(model.dim, 10000, seed=pkg.DEFAULT_SEED)
        x = np.repeat(PERIODS_DECISION, T)
        calls[f"inequality_hits/energy_T{T}"] = functools.partial(
            pkg.radial.inequality_hits, system, x, dirs.directions, model)
        calls[f"evaluate/energy_T{T}"] = functools.partial(pkg.evaluate, system, x, model, dirs)
        calls[f"gradient/energy_T{T}"] = pkg.evaluate(system, x, model, dirs).gradient
    problem = pkg.make_energy_problem()
    system, model = problem.system, problem.model
    x = pkg.solve(problem)[0]
    calls["solve_validate/energy"] = lambda: pkg.validate(pkg.solve(problem)[0], problem)
    calls["validate/energy"] = functools.partial(pkg.validate, x, problem)
    calls["unit_check/energy_T4"] = functools.partial(pkg.radial._unit_rows, x,
                                                      problem.eval_dirs.directions)
    for dirs in (problem.eval_dirs, problem.validate_dirs):
        rho = pkg.evaluate(system, x, model, dirs).hits.rho
        calls[f"chi_cdf/m{model.dim}_n{dirs.n // 1000}k"] = functools.partial(
            pkg.chi_cdf, model.dim, rho)
    calls[f"chi_cdf/m{ABOVE_DIM}_n10k"] = functools.partial(
        pkg.chi_cdf, ABOVE_DIM, chi_radii(ABOVE_DIM, np.random.default_rng(7)))
    return calls


def chi_sweep(repeats):
    """The chi cdf's ``gammainc`` path (the baseline side) and its tail sum
    (this side), each forced through ``_SUM_MAX_DIM``, at each dimension of
    SWEEP_DIMS, timed by ``pairs``."""
    rng = np.random.default_rng(13)
    radii = {m: {"chi": chi_radii(m, rng),
                 "uniform": rng.uniform(0.0, 1.2 * sp.chi_cutoff(m), 10000)}
             for m in SWEEP_DIMS}

    def forced(cutoff, m, r):
        gaussian._SUM_MAX_DIM = cutoff
        return gaussian._chi_cdf(m, r)

    saved = gaussian._SUM_MAX_DIM
    try:
        return {str(m): {kind: pairs(functools.partial(forced, m - 1, m, r),
                                     functools.partial(forced, m, m, r), repeats)
                         for kind, r in radii[m].items()}
                for m in SWEEP_DIMS}
    finally:
        gaussian._SUM_MAX_DIM = saved


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--repeats", type=int, default=15, help="timed runs per side of a pair")
    parser.add_argument("--baseline-src", default=SRC,
                        help="another checkout's src/, timed interleaved with this one's "
                             "(default: this checkout's own)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")

    problem = sp.make_energy_problem()
    x, trace, counts = solve_counts(problem)
    T = problem.cost.size // 2
    start = np.repeat(INFEASIBLE_START, T)
    counts["infeasible_start"] = solve_counts(dataclasses.replace(problem, start=start))[2]
    print(f"counts: {counts}")
    system, model = problem.system, problem.model
    ev_validate = estimates.evaluate(system, x, model, problem.validate_dirs)
    peaks = {"evaluate": peak_mb(lambda: estimates.evaluate(system, x, model, problem.eval_dirs)),
             "validate": peak_mb(lambda: solver.validate(x, problem)),
             "gradient": peak_mb(ev_validate.gradient)}
    print(f"peak_mb: {peaks}")
    oracle, scan = ray_counts()
    for name, rec in oracle.items():
        print(f"{name:26s} eps {rec['eps']:<5g} {rec['project_calls']:3d} project calls "
              f"{rec['project_rows_per_ray']:7.3f} rows/ray")
    grad_rows = gradient_project_rows()
    for name, rec in grad_rows.items():
        print(f"{name:22s} gradient() " + "  ".join(
            f"{eps} {n:.3f}" for eps, n in rec.items()) + " project rows/finite ray")
    for name, rec in scan.items():
        print(f"{name:24s} {rec['eval_g_calls']:3d} eval_g calls "
              f"{rec['eval_g_rows_per_ray']:7.3f} eval_g "
              f"{rec['grad_z_g_rows_per_ray']:7.3f} grad_z_g rows/ray")

    interleaved = interleaved_layers(load_sphrad(args.baseline_src), args.repeats)
    sweep = chi_sweep(args.repeats)
    imports = import_times(args.baseline_src, 3 if args.repeats == 1 else 9)
    timed = {**interleaved, **{f"chi_cdf_sweep/m{m}_{kind}": rec
                               for m, recs in sweep.items() for kind, rec in recs.items()},
             "import sphrad.cli": imports}
    for key, rec in timed.items():
        print(f"{key:40s} {rec['baseline_ms']:8.3f} -> {rec['ms']:8.3f} ms "
              f"x{rec['speedup']:.3f}, faster in {rec['faster_pairs']} pairs")

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
        "peak_mb": peaks,
        "oracle": {"n": 10000, "cases": oracle,
                   "gradient_project_rows_per_finite_ray": grad_rows},
        "scan": {"n": 10000, "cases": scan},
        "interleaved": {"n": 10000, "cases": interleaved},
        "chi_cdf_sweep": {"n": 10000, "dims": sweep},
        "import": imports,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
