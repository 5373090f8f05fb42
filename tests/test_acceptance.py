"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run as part of the normal pytest suite, or alone:

    pytest tests/test_acceptance.py -v
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import stats

import sphrad as sp
from sphrad.radial import inequality_hits
from sphrad.verify import check_radial_lemmas

from _helpers import reference_weights


def _report(capsys, num, desc, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\nACCEPTANCE {num} [{status}] {desc}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {detail}"


def _model(m):
    return sp.build_model(np.zeros(m), np.eye(m))


def _qmc(m, n=10000, seed=sp.DEFAULT_SEED):
    return sp.sample_sphere(m, n, seed=seed, method=sp.SphereMethod.QMC)


def _slab():
    return sp.make_slab([1.0, 0.0], lambda x: x[0], lambda x: np.array([1.0]))


def test_criterion_1_halfspace_analytic(capsys):
    details, ok = [], True
    for m in (2, 4, 8):
        t0 = time.perf_counter()
        a = np.zeros(m)
        a[0] = 1.0
        sys_ = sp.make_halfspace(a)
        model = _model(m)
        dirs = _qmc(m)
        ev = sp.evaluate(sys_, [1.0], model, dirs)
        v, g = ev.value, ev.gradient().gradient[0]
        dt = time.perf_counter() - t0
        ev = abs(v - stats.norm.cdf(1.0))
        eg = abs(g - stats.norm.pdf(1.0))
        ok &= ev <= 1e-3 and eg <= 1e-3 and dt <= 5.0
        details.append(f"m={m}: |dv|={ev:.1e} |dg|={eg:.1e} {dt:.1f}s")
    _report(capsys, 1, "half-space value and gradient vs normal cdf/pdf, m in {2,4,8}",
            ok, "; ".join(details))


def test_criterion_2_slab_analytic(capsys):
    t0 = time.perf_counter()
    tau = np.sqrt(np.exp(2) - 1)
    model = _model(2)
    dirs = _qmc(2)
    ev = sp.evaluate(_slab(), [-1.0], model, dirs)
    v, g = ev.value, ev.gradient().gradient[0]
    dt = time.perf_counter() - t0
    ev = abs(v - (2 * stats.norm.cdf(tau) - 1))
    eg = abs(g - 2 * stats.norm.pdf(tau) * (-np.exp(2) / tau))
    ok = ev <= 1e-3 and eg <= 1e-3 and dt <= 5.0
    _report(capsys, 2, "quasi-convex slab value and gradient vs closed form",
            ok, f"|dv|={ev:.1e} |dg|={eg:.1e} {dt:.1f}s")


def _value_and_pattern(system, x, model, dirs):
    batch = inequality_hits(system, x, dirs.directions, model)
    val = float(np.mean(sp.chi_cdf(model.dim, batch.rho)))
    return val, (batch.act.tobytes(), np.isfinite(batch.rho).tobytes())


def _crn_identity_check(system, x, model, dirs, h0=5e-5):
    """Returns (usable, rel_err): usable is False when the FD window contains
    an active-set crossover (a tie), which the criterion excludes."""
    x = np.asarray(x, dtype=float)
    _, ref = _value_and_pattern(system, x, model, dirs)
    g = sp.evaluate(system, x, model, dirs).gradient()
    if g.tie_fraction > 0:
        return False, np.inf
    fd = np.zeros_like(x)
    for i in range(x.shape[0]):
        h = h0 * max(1.0, abs(x[i]))
        vals = []
        for sign in (1.0, -1.0):
            xp = x.copy()
            xp[i] += sign * h
            val, pat = _value_and_pattern(system, xp, model, dirs)
            if pat != ref:
                return False, np.inf
            vals.append(val)
        fd[i] = (vals[0] - vals[1]) / (2 * h)
    rel = float(np.linalg.norm(fd - g.gradient) / max(np.linalg.norm(g.gradient), 1e-12))
    return True, rel


def test_criterion_3_crn_gradient_identity(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(29)
    model2 = _model(2)
    dirs2 = sp.sample_sphere(2, 1000, seed=3, method=sp.SphereMethod.QMC)
    params = sp.EnergyParams()
    emodel = sp.build_energy_covariance(params)
    esys = sp.make_energy_system(params)
    edirs = sp.sample_sphere(emodel.dim, 1000, seed=3, method=sp.SphereMethod.QMC)
    cases = [
        ("halfspace", sp.make_halfspace([1.0, 0.0]), model2, dirs2,
         lambda: [rng.uniform(0.3, 2.0)]),
        ("slab", _slab(), model2, dirs2, lambda: [rng.uniform(-1.5, -0.3)]),
        ("hyperbolic", sp.make_hyperbolic_system(), model2, dirs2,
         lambda: [rng.uniform(0.5, 2.5)]),
        ("energy", esys, emodel, edirs,
         lambda: list(rng.uniform(0.1, 1.5, 4)) + list(rng.uniform(10.6, 18.0, 4))),
    ]
    ok = True
    details = []
    for name, system, model, dirs, draw in cases:
        rels, tried = [], 0
        while len(rels) < 10 and tried < 100:
            tried += 1
            usable, rel = _crn_identity_check(system, draw(), model, dirs)
            if usable:
                rels.append(rel)
        worst = max(rels) if len(rels) == 10 else np.inf
        ok &= worst <= 1e-6
        details.append(f"{name}: {len(rels)} pts, max rel {worst:.1e}")
    dt = time.perf_counter() - t0
    ok &= dt <= 30.0
    _report(capsys, 3, "gradient matches fixed-direction finite differences (1e-6 rel)",
            ok, "; ".join(details) + f"; {dt:.1f}s")


def test_criterion_4_radial_lemma_suite(capsys):
    ok, detail = check_radial_lemmas(quick=False)
    _report(capsys, 4, "radial-function lemmas: monotonicity, uniqueness, "
            "nesting, continuity (100 instances)", ok, detail)


def test_criterion_5_enlargement_limit(capsys):
    model = _model(2)
    dirs = _qmc(2)
    ok = True
    details = []
    for oracle, exact_target in (
            (sp.make_ball(np.zeros(2)), ("ball", None)),
            (sp.make_hyperbolic_set(), ("hyperbolic", sp.make_hyperbolic_system()))):
        name, exact_sys = exact_target
        vals = [sp.evaluate(oracle, [1.0], model, dirs, eps=e).value
                for e in (0.5, 0.1, 0.01, 0.001)]
        if exact_sys is None:
            base = sp.evaluate(oracle, [1.0], model, dirs, eps=0.0).value
        else:
            base = sp.evaluate(exact_sys, [1.0], model, dirs).value
        mono = all(vals[i] >= vals[i + 1] - 1e-12 for i in range(3))
        mono &= vals[-1] >= base - 1e-9
        gap = abs(vals[-1] - base)
        ok &= mono and gap <= 2e-3
        details.append(f"{name}: monotone={mono} |phi_0.001-phi|={gap:.1e}")
    _report(capsys, 5, "enlarged probabilities decrease to the plain value",
            ok, "; ".join(details))


def test_criterion_6_hyperbolic_example(capsys):
    t0 = time.perf_counter()
    model = _model(2)
    sys_ = sp.make_hyperbolic_system()
    est = sp.evaluate(sys_, [1.0], model, _qmc(2)).value
    # Rejection-sampling oracle, one million draws.
    rng = np.random.Generator(np.random.Philox(key=2718281828))
    Z = rng.standard_normal((10**6, 2))
    inside = ((Z[:, 0] + 2) * (Z[:, 1] + 2) >= 1.0) & (Z[:, 0] >= -2) & (Z[:, 1] >= -2)
    p_mc = inside.mean()
    se_mc = np.sqrt(p_mc * (1 - p_mc) / len(Z))
    value_ok = abs(est - p_mc) <= 3 * se_mc
    # Derivative stability across five scrambles.
    grads, ses = [], []
    for seed in range(1, 6):
        ev = sp.evaluate(sys_, [1.0], model, _qmc(2, seed=seed))
        grads.append(ev.gradient().gradient[0])
        ses.append(reference_weights(ev)[:, 0].std(ddof=1) / np.sqrt(ev.dirs.n))
    spread = max(grads) - min(grads)
    se = float(np.mean(ses))
    grad_ok = spread <= 3 * se
    dt = time.perf_counter() - t0
    ok = value_ok and grad_ok and dt <= 60.0
    _report(capsys, 6, "hyperbolic-set probability vs rejection oracle; "
            "derivative stable across seeds", ok,
            f"|dv|={abs(est - p_mc):.1e} vs 3SE={3 * se_mc:.1e}; "
            f"spread={spread:.1e} vs 3SE={3 * se:.1e}; {dt:.1f}s")


@pytest.fixture(scope="module")
def energy_solution():
    t0 = time.perf_counter()
    problem = sp.make_energy_problem(n_dirs=10000)
    x, trace = sp.solve(problem)
    return problem, x, trace, time.perf_counter() - t0


def _stationarity_rel(problem, x):
    """Relative gap between ``gradient()`` at ``x`` and a central difference
    of the value on the same directions.  The 5e-8 step stays inside x's
    active pattern, and the check asserts it: a wider step (5e-6 read fd_rel
    up to 8e-4 on seeds 1-3) spans a kink of the common-random-numbers
    estimate, where some direction's active row changes, and mixes two
    smooth pieces while gradient() reads one."""
    system, model, dirs = problem.system, problem.model, problem.eval_dirs
    g = sp.evaluate(system, x, model, dirs).gradient().gradient
    _, ref = _value_and_pattern(system, x, model, dirs)
    fd = np.zeros_like(x)
    for i in range(len(x)):
        h = 5e-8 * max(1.0, abs(x[i]))
        vals = []
        for sign in (1.0, -1.0):
            xs = x.copy()
            xs[i] += sign * h
            val, pat = _value_and_pattern(system, xs, model, dirs)
            assert pat == ref, f"active pattern changes within {h:.0e} of x[{i}]"
            vals.append(val)
        fd[i] = (vals[0] - vals[1]) / (2 * h)
    return float(np.linalg.norm(fd - g) / np.linalg.norm(g))


def test_criterion_7_energy_case_study(capsys, energy_solution):
    problem, x, trace, solve_time = energy_solution
    t0 = time.perf_counter()
    val = sp.validate(x, problem)
    # Stationarity cross-check via the common-random-numbers identity.
    rel = _stationarity_rel(problem, x)
    total = solve_time + (time.perf_counter() - t0)
    ok = (trace.status in ("converged", "box_optimum")
          and 0.79 <= val.value <= 0.81
          and rel <= 1e-4
          and total <= 300.0)
    _report(capsys, 7, "energy dispatch: solver terminates, validation in "
            "[0.79, 0.81], stationarity cross-check",
            ok, f"status={trace.status} iters={len(trace.records) - 1} "
            f"validated={val.value:.4f}+-{val.std_error:.4f} fd_rel={rel:.1e} "
            f"{total:.0f}s")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_criterion_7_stationarity_across_seeds(seed):
    # The bar holds for the estimator, not for one scramble seed.
    problem = sp.make_energy_problem(n_dirs=10000, seed=seed)
    x, trace = sp.solve(problem)
    assert trace.status in ("converged", "box_optimum")
    assert _stationarity_rel(problem, x) <= 1e-4


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "sphrad", *args],
                          capture_output=True, text=True)


def test_criterion_8_cli_determinism(capsys, tmp_path):
    ok = True
    details = []
    # eval and grad
    for cmd, extra in (("eval", []), ("grad", ["--check-fd"])):
        payloads = []
        for run in (1, 2):
            out = tmp_path / f"{cmd}{run}.json"
            proc = _run_cli(cmd, "--fixture", "halfspace", "--x", "1",
                            "--n", "2000", "--seed", "7",
                            "--out", str(out), *extra)
            ok &= proc.returncode == 0
            payloads.append(out.read_bytes())
        same = payloads[0] == payloads[1]
        ok &= same
        details.append(f"{cmd}: identical={same}")
    # solve-energy (reduced instance; the determinism machinery is identical)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"energy": {"periods": 2}, "n": 800,
                               "validate_n": 20000}))
    blobs = []
    for run in (1, 2):
        out_dir = tmp_path / f"energy{run}"
        proc = _run_cli("solve-energy", "--config", str(cfg), "--out", str(out_dir))
        ok &= proc.returncode == 0
        blobs.append(tuple((out_dir / name).read_bytes()
                           for name in ("solution.json", "trace.jsonl",
                                        "iterations.csv")))
    same = blobs[0] == blobs[1]
    ok &= same
    details.append(f"solve-energy: identical={same}")
    # verify (stdout is the artifact)
    outs = [_run_cli("verify", "--quick") for _ in (1, 2)]
    ok &= all(p.returncode == 0 for p in outs)
    same = outs[0].stdout == outs[1].stdout
    ok &= same
    details.append(f"verify: identical={same}")
    _report(capsys, 8, "CLI reruns produce byte-identical artifacts",
            ok, "; ".join(details))
