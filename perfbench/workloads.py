"""The three benchmark workloads.

Every workload is a closed loop: one caller in one process, each call
issued after the previous one returns.  Inputs come from the seed only.
Outputs are checked after the timed loop against references that do not
use sphrad's ray solver (``checks.py``); a non-zero exit, a raised error or
a missed check counts the operation as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import time
import traceback

import numpy as np

import checks
from speed import SpeedProbe
from tracing import Tracer

N_DIRS = 10000
#: A run ends after ``seconds`` of calls, but never before MIN_CALLS calls so
#: that the 90th percentile has at least ten calls beyond it ...
MIN_CALLS = 100
#: ... and never after MAX_WALL seconds, so that a run ends in time.
MAX_WALL = 120.0
#: Calls replayed by a traced run (untraced once, then traced).
TRACE_CALLS = {"estimate_sweep": 100, "enlarged_oracle": 40}
#: Enlargement ladder, as in scripts/enlargement_sweep.py.
LADDER = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0)

# One round of each sweep: (fixture, dim, command).  estimate_sweep cycles
# through the inequality fixtures, alternating eval and grad.  In
# enlarged_oracle a round is 1/4 hyperbolic projection oracle (0.25-0.85 s a
# call), 1/4 ball in dim 2 (about 0.1 s) and 1/2 ball in dim 8 (0.13-0.19 s):
# the median falls inside the dim-8 ball calls and the 90th percentile
# inside the hyperbolic ones, not in a gap between two kinds of call.
ROUNDS = {
    "estimate_sweep": [(f, d, c) for f, d in (("halfspace", 2), ("halfspace", 8),
                                              ("slab", 2), ("slab", 8),
                                              ("hyperbolic", 2))
                       for c in ("eval", "grad")],
    "enlarged_oracle": [(f, d, c) for f, d in (("hyperbolic", 2), ("ball", 2),
                                               ("ball", 8), ("ball", 8))
                        for c in ("eval", "grad")],
}
#: Decision ranges inside each fixture's valid region.
X_RANGE = {("halfspace", 2): (0.25, 2.5), ("halfspace", 8): (0.25, 2.5),
           ("slab", 2): (-1.5, -0.1), ("slab", 8): (-1.5, -0.1),
           ("hyperbolic", 2): (0.5, 3.5),
           ("ball", 2): (0.5, 2.5), ("ball", 8): (2.0, 4.0)}
#: Decisions on the enlarged hyperbolic body, a ladder across its valid
#: range (0, 4).  Its call time depends strongly on x, so every run uses the
#: whole ladder, and its Monte Carlo reference is computed once per rung.
HYP_SET_X = (0.75, 1.25, 1.75, 2.25, 2.75, 3.25)


def quantile(values, q):
    """The q-quantile as ``statistics.quantiles`` cuts it (exclusive method)."""
    if len(values) < 2:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100)
    return float(cuts[int(round(q * 100)) - 1])


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Schedule:
    """The seeded sequence of CLI calls of a sweep workload.

    Each call gets a fresh direction seed.  Decisions are drawn uniformly
    from the fixture's range, except on the enlarged hyperbolic body, where
    they cycle through HYP_SET_X in a seeded order.  Enlargements cycle
    through LADDER in a seeded order.  So every run makes the same mix of
    calls, and the seed changes the values and their order.
    """

    def __init__(self, workload, seed):
        self.round = ROUNDS[workload]
        self.enlarged = workload == "enlarged_oracle"
        self.seed = seed
        self.rng = np.random.default_rng([seed, 1])
        self.orders = [(self.rng.permutation(len(self.ladder(c))),
                        self.rng.permutation(len(HYP_SET_X))) for _, _, c in self.round]

    @staticmethod
    def ladder(command):
        return LADDER if command == "eval" else LADDER[:-1]   # eps = 0: eval only

    def take(self, i):
        slot, k = i % len(self.round), i // len(self.round)
        fixture, dim, command = self.round[slot]
        eps_order, x_order = self.orders[slot]
        eps = None
        if self.enlarged:
            eps = float(self.ladder(command)[eps_order[k % eps_order.size]])
        if self.enlarged and fixture == "hyperbolic":
            x = HYP_SET_X[x_order[k % x_order.size]]
        else:
            x = round(float(self.rng.uniform(*X_RANGE[(fixture, dim)])), 6)
        return {"command": command, "fixture": fixture, "dim": dim, "x": x,
                "eps": eps, "seed": self.seed * 1000003 + i + 1}


def argv_of(spec):
    argv = [spec["command"], "--fixture", spec["fixture"], "--dim", str(spec["dim"]),
            "--x", repr(spec["x"]), "--n", str(N_DIRS), "--seed", str(spec["seed"])]
    if spec["eps"] is not None:
        argv += ["--eps", repr(spec["eps"])]
    return argv


def call_cli(cli, spec, probe=None):
    """One in-process ``sphrad`` call; returns (seconds, exit code, output, error)."""
    buf = io.StringIO()
    err = None
    spent0 = probe.spent if probe else 0.0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv_of(spec))
    except Exception:                  # a raised error is a failed operation
        rc, err = None, traceback.format_exc(limit=3)
    dt = time.perf_counter() - t0 - ((probe.spent - spent0) if probe else 0.0)
    return dt, rc, buf.getvalue(), err


def check_call(refs, spec, rc, out, err):
    """Returns (error or None, failure message or None)."""
    if err is not None:
        return None, f"raised: {err.strip().splitlines()[-1]}"
    if rc != 0:
        return None, f"exit code {rc}"
    try:
        payload = json.loads(out)
        est = payload["value"] if spec["command"] == "eval" else payload["gradient"][0]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return None, f"unreadable output: {exc}"
    ref, tol = refs.expected(spec["fixture"], spec["command"], spec["x"], spec["eps"],
                             spec["dim"], N_DIRS)
    e = abs(float(est) - ref)
    if not e <= tol:
        return e, f"|{est:.6g} - {ref:.6g}| = {e:.3g} > {tol:.3g}"
    return e, None


def run_sweep(workload, seed, seconds, trace, stem):
    import sphrad.cli as cli
    sched = Schedule(workload, seed)
    call_cli(cli, {"command": "eval", "fixture": "halfspace", "dim": 2, "x": 1.0,
                   "eps": None, "seed": 1})        # warm-up, not measured
    calls = []                                    # (spec, seconds, rc, out, err)
    probe = SpeedProbe()
    report = {}
    if trace:
        specs = [sched.take(i) for i in range(TRACE_CALLS[workload])]
        with probe:
            untraced = sum(call_cli(cli, s, probe)[0] for s in specs) * probe.factor()
        tracer = Tracer()
        probe = SpeedProbe()
        tracer.install()
        try:
            with probe:
                for i, s in enumerate(specs):
                    tracer.op = i
                    calls.append((s,) + call_cli(cli, s, probe))
        finally:
            tracer.uninstall()
        traced = sum(c[1] for c in calls) * probe.factor()
        tracer.pauses = probe.intervals
        report["trace"] = trace_report(tracer, traced / untraced - 1.0, stem)
    else:
        t_start = time.perf_counter()
        busy = 0.0
        with probe:
            while ((busy < seconds or len(calls) < MIN_CALLS)
                   and time.perf_counter() - t_start < MAX_WALL):
                s = sched.take(len(calls))
                c = call_cli(cli, s, probe)
                busy += c[0]
                calls.append((s,) + c)

    rss = peak_rss_mb()
    t_check = time.perf_counter()
    refs = checks.References(seed)
    failures, errs = [], {"eval": [], "grad": []}
    for s, dt, rc, out, err in calls:
        e, msg = check_call(refs, s, rc, out, err)
        if e is not None:
            errs[s["command"]].append(e)
        if msg:
            failures.append({"call": argv_of(s), "why": msg})
    lat_ms = [1000.0 * c[1] for c in calls]
    detail = {
        "calls": len(calls),
        "eval_calls": sum(c[0]["command"] == "eval" for c in calls),
        "value_err_max": max(errs["eval"], default=0.0),
        "grad_err_max": max(errs["grad"], default=0.0),
        "failures": failures[:5],
        "check_s": time.perf_counter() - t_check,
    }
    metrics = {
        "call_ms_p50": statistics.median(lat_ms),
        "call_ms_p90": quantile(lat_ms, 0.9),
        "calls_per_s": len(calls) / (sum(lat_ms) / 1000.0),
        "peak_rss_mb": rss,
    }
    if trace:
        metrics = dict(report["trace"]["per_layer"])
        metrics["estimates.value_err_max"] = detail["value_err_max"]
        metrics["estimates.grad_err_max"] = detail["grad_err_max"]
    report.update(detail)
    return metrics, len(calls), len(failures), report, probe


def run_energy(seed, seconds, trace, stem):
    from sphrad import energy, solver
    params = energy.EnergyParams()
    validate_seed = energy_validate_seed(seed)
    problem = energy.make_energy_problem(params, validate_seed=validate_seed)
    probe = SpeedProbe()
    dispatches = []              # (solve s, validate s, x, trace, validation, error)

    def dispatch(prob, probe, tracer=None):
        ts = tv = 0.0
        x = tr = val = err = None
        try:
            if tracer:
                tracer.op = "solve"
            ts, (x, tr) = probe.timed(solver.solve, prob)
            if tracer:
                tracer.op = "validate"
            tv, val = probe.timed(solver.validate, x, prob)
        except Exception:              # a raised error is a failed operation
            err = traceback.format_exc(limit=3).strip().splitlines()[-1]
        dispatches.append((ts, tv, x, tr, val, err))

    report = {}
    if trace:
        with probe:
            dispatch(problem, probe)
        untraced = (dispatches[0][0] + dispatches[0][1]) * probe.factor()
        dispatches.clear()
        tracer = Tracer()
        probe = SpeedProbe()
        tracer.install()
        try:
            problem = energy.make_energy_problem(params, validate_seed=validate_seed)
            with probe:
                dispatch(problem, probe, tracer)
        finally:
            tracer.uninstall()
        tracer.pauses = probe.intervals
        traced = (dispatches[0][0] + dispatches[0][1]) * probe.factor()
        report["trace"] = trace_report(tracer, traced / untraced - 1.0, stem,
                                       ops=("setup", "solve", "validate"))
    else:
        t_start = time.perf_counter()
        with probe:
            while True:
                dispatch(problem, probe)
                elapsed = time.perf_counter() - t_start
                last = dispatches[-1][0] + dispatches[-1][1]
                if elapsed + last > min(seconds, MAX_WALL) or dispatches[-1][5]:
                    break

    rss = peak_rss_mb()
    t_check = time.perf_counter()
    failures, errs = [], []
    for k, (ts, tv, x, tr, val, err) in enumerate(dispatches):
        if err:
            failures.append({"dispatch": k, "why": f"raised: {err}"})
            continue
        p_ref, se_ref = checks.energy_reference(problem.model, x, params.wind_coeff, seed)
        e = abs(val.value - p_ref)
        errs.append(e)
        tol = checks.Z * float(np.hypot(val.std_error, se_ref))
        why = []
        if tr.status != "converged":
            why.append(f"status {tr.status}")
        if not 0.79 <= val.value <= 0.81:
            why.append(f"validated value {val.value:.5f} outside [0.79, 0.81]")
        if not e <= tol:
            why.append(f"|validated {val.value:.5f} - plain MC {p_ref:.5f}| > {tol:.2g}")
        if why:
            failures.append({"dispatch": k, "why": "; ".join(why)})
    done = [d for d in dispatches if d[5] is None]
    lat_ms = [1000.0 * (d[0] + d[1]) for d in dispatches]
    detail = {"dispatches": len(dispatches), "failures": failures,
              "validate_seed": validate_seed, "check_s": time.perf_counter() - t_check}
    if done:
        ts, tv, x, tr, val, _ = done[-1]
        detail.update({
            "solve_s": statistics.median(d[0] for d in done),
            "validate_s": statistics.median(d[1] for d in done),
            "final_cost": float(problem.cost @ x),
            "status": tr.status,
            "iterations": len(tr.records) - 1,
            "accepted_steps": sum(r.accepted for r in tr.records[1:]),
            "validated": [val.value, val.std_error],
            "value_err_max": max(errs),
        })
    metrics = {
        "call_ms_p50": statistics.median(lat_ms),
        "call_ms_p90": quantile(lat_ms, 0.9),
        "calls_per_s": len(lat_ms) / (sum(lat_ms) / 1000.0),
        "peak_rss_mb": rss,
    }
    if trace:
        metrics = dict(report["trace"]["per_layer"])
        metrics.update({
            "estimates.value_err_max": detail.get("value_err_max", 0.0),
            "solver.iterations": detail.get("iterations", 0),
            "solver.accepted_steps": detail.get("accepted_steps", 0),
            "solver.solve_s": detail.get("solve_s", 0.0),
            "solver.validate_s": detail.get("validate_s", 0.0),
            "solver.final_cost": detail.get("final_cost", 0.0),
        })
    report.update(detail)
    return metrics, len(dispatches), len(failures), report, probe


def energy_validate_seed(seed):
    """Validation directions follow the benchmark seed; the QMC evaluation
    set keeps the package default, so the solve path is the case study's."""
    return 1000 + int(seed)


def trace_report(tracer, overhead, stem, ops=()):
    """Per-layer metrics, per-op counts, absent probes; writes the spans."""
    per_layer = tracer.summary()
    per_layer.update({"trace.overhead": overhead, "trace.spans": len(tracer.spans),
                      "trace.absent": len(tracer.absent)})
    spans_path = stem.with_name(stem.name + ".spans.jsonl")
    tracer.write(spans_path)
    return {"per_layer": per_layer, "absent": tracer.absent,
            "per_op": {op: tracer.summary(op) for op in ops},
            "spans_file": spans_path.name}
