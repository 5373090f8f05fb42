"""Self-verification suite run by the ``verify`` CLI command.

Each check is a named callable returning (passed, detail).  Quick mode
reduces sample sizes and widens the sampling-error-limited tolerances
accordingly; fixed analytic tolerances are kept as is.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, special, stats

from .estimates import evaluate, fd_gradient
from .gaussian import (_SUM_MAX_DIM, DEFAULT_SEED, SphereMethod, build_model,
                       chi_cdf, chi_cutoff, chi_pdf, sample_sphere)
from .oracles import (make_ball, make_halfspace, make_hyperbolic_set,
                      make_hyperbolic_system, make_slab, slab_threshold)
from .radial import enlarged_hits


def _model(m):
    return build_model(np.zeros(m), np.eye(m))


def _rho(oracle, x, v, eps, model):
    """Enlarged radial function along one direction (inf if never left)."""
    return float(enlarged_hits(oracle, x, v[None, :], eps, model).rho[0])


def check_chi_normalization(quick=False):
    dims = (1, 2, 8, 16) if quick else tuple(range(1, 17))
    worst = 0.0
    for m in dims:
        total, _ = integrate.quad(lambda r: chi_pdf(m, r), 0.0, chi_cutoff(m), limit=200)
        worst = max(worst, abs(total - 1.0))
    ok = worst <= 1e-9
    return ok, f"max |integral - 1| = {worst:.2e} over m in {dims[0]}..{dims[-1]}"


def check_chi_consistency(quick=False):
    worst = 0.0
    # Fixed step balancing truncation (steep density at small r, large m)
    # against cancellation where cdf is close to 1 (large r).
    h = 1e-4
    for m in (1, 2, 5, 9):
        for r in (0.5, 1.0, 2.0, 5.0):
            fd = (chi_cdf(m, r + h) - chi_cdf(m, r - h)) / (2 * h)
            pdf = chi_pdf(m, r)
            if pdf > 1e-300:
                worst = max(worst, abs(fd - pdf) / pdf)
    ok = worst <= 1e-6
    return ok, f"max relative cdf'/pdf mismatch = {worst:.2e}"


def check_chi_cdf_reference(quick=False):
    # The check above cannot see a cdf error below about 1e-11.  This one
    # reads the cdf itself, on both sides of the tail sum's dimension limit.
    worst = 0.0
    for m in (*range(1, 17), 63, 64, _SUM_MAX_DIM, _SUM_MAX_DIM + 1, 320):
        r = np.linspace(0.0, chi_cutoff(m), 2001)
        err = chi_cdf(m, r) - special.gammainc(m / 2.0, r * r / 2.0)
        worst = max(worst, float(np.abs(err).max()))
    return worst <= 1e-14, f"max |cdf - gammainc| = {worst:.2e} over m in 1..320"


def check_sphere_construction(quick=False):
    n = 1000 if quick else 10000
    msgs = []
    ok = True
    for method in (SphereMethod.MONTE_CARLO, SphereMethod.QMC):
        d1 = sample_sphere(3, n, seed=5, method=method)
        d2 = sample_sphere(3, n, seed=5, method=method)
        if d1.directions.tobytes() != d2.directions.tobytes():
            ok = False
            msgs.append(f"{method.value}: not reproducible")
        norm_err = np.abs(np.linalg.norm(d1.directions, axis=1) - 1.0).max()
        pair_err = np.abs(d1.directions[0::2] + d1.directions[1::2]).max()
        if norm_err > 1e-12 or pair_err != 0.0:
            ok = False
            msgs.append(f"{method.value}: norms {norm_err:.1e}, antithetic {pair_err:.1e}")
    return ok, "; ".join(msgs) if msgs else "bitwise reproducible, unit norms, exact pairs"


def check_sphere_unbiasedness(quick=False):
    n = 10000 if quick else 100000
    d = sample_sphere(3, n, seed=11, method=SphereMethod.MONTE_CARLO)
    u = np.array([1.0, 0.0, 0.0])
    vals = np.maximum(d.directions @ u, 0.0)
    pairs = (vals[0::2] + vals[1::2]) / 2      # antithetic pairs (v, -v)
    est, se = pairs.mean(), pairs.std(ddof=1) / np.sqrt(n // 2)
    err = abs(est - 0.25)          # hemisphere average of max(<u,v>,0) in R^3
    ok = err <= 3 * se + 1e-12
    return ok, f"|est - 0.25| = {err:.2e} vs 3 SE = {3 * se:.2e}"


def _analytic(system, x, value, grad, quick):
    """Value and gradient errors at ``x`` against closed forms, on 10k QMC
    directions (1k in quick mode, with the tolerance widened by sqrt(10))."""
    n = 1000 if quick else 10000
    dirs = sample_sphere(2, n, seed=DEFAULT_SEED, method=SphereMethod.QMC)
    ev = evaluate(system, [x], _model(2), dirs)
    dv, dg = abs(ev.value - value), abs(ev.gradient().gradient[0] - grad)
    tol = 1e-3 * np.sqrt(10000 / n)
    return dv <= tol and dg <= tol, f"value err {dv:.2e}, grad err {dg:.2e} (tol {tol:.1e})"


def check_halfspace_analytic(quick=False):
    return _analytic(make_halfspace([1.0, 0.0]), 1.0, stats.norm.cdf(1), stats.norm.pdf(1),
                     quick)


def check_slab_analytic(quick=False):
    tau = slab_threshold(-1.0)
    slab = make_slab([1.0, 0.0], lambda x: x[0], lambda x: np.array([1.0]))
    return _analytic(slab, -1.0, 2 * stats.norm.cdf(tau) - 1,
                     2 * stats.norm.pdf(tau) * (-np.exp(2) / tau), quick)


def check_radial_lemmas(quick=False):
    n_inst = 10 if quick else 100
    model = _model(2)
    ball = make_ball(np.zeros(2))
    hyp = make_hyperbolic_set()
    rng = np.random.default_rng(2024)
    failures = []
    for j in range(n_inst):
        oracle, x = (ball, [rng.uniform(0.5, 2.0)]) if j % 2 == 0 else (hyp, [rng.uniform(0.5, 2.0)])
        theta = rng.uniform(0, 2 * np.pi)
        v = np.array([np.cos(theta), np.sin(theta)])
        eps1, eps2 = sorted(rng.uniform(0.01, 0.5, 2))
        r0, r1, r2 = (_rho(oracle, x, v, e, model) for e in (0.0, eps1, eps2))
        if not (r0 <= r1 + 1e-9 <= r2 + 2e-9):
            failures.append(f"nesting at instance {j}")
        if not np.isfinite(r0):
            continue            # the ray never leaves the body
        Z = lambda r: model.mean + r * v
        d = lambda r: float(np.linalg.norm(Z(r) - oracle.project(x, Z(r)[None, :])[0]))
        # distance monotone past the plain root
        ra = r0 * 1.05 + 0.01
        rb = ra * 1.5 + 0.1
        if not d(ra) < d(rb):
            failures.append(f"monotonicity at instance {j}")
        # uniqueness: residual at the eps root, and strict crossing
        if np.isfinite(r1):
            res = abs(d(r1) - eps1)
            if res > 1e-8 or not (d(r1 * (1 - 1e-4)) < eps1 < d(r1 * (1 + 1e-4))):
                failures.append(f"uniqueness at instance {j} (res {res:.1e})")
        # continuity under (eps, x, v) perturbation, away from the cone of
        # infinite directions where the radial function blows up
        if r1 <= 5.0:
            prev = np.inf
            for delta in (1e-2, 1e-3, 1e-4):
                vp = v + delta * np.array([1.0, -1.0])
                vp /= np.linalg.norm(vp)
                gap = abs(_rho(oracle, [x[0] + delta], vp, eps1 + delta, model) - r1)
                if gap > prev + 1e-9 or (delta == 1e-4 and gap > 1e-2):
                    failures.append(f"continuity at instance {j} (delta {delta}, gap {gap:.1e})")
                    break
                prev = gap
    ok = not failures
    return ok, f"{n_inst} instances, failures: {failures[:3] if failures else 'none'}"


def check_enlargement_limit(quick=False):
    n = 2000 if quick else 10000
    tol = 2e-3 * (2.0 if quick else 1.0)
    model = _model(2)
    dirs = sample_sphere(2, n, seed=DEFAULT_SEED, method=SphereMethod.QMC)
    msgs, ok = [], True
    for oracle, x in ((make_ball(np.zeros(2)), [1.0]), (make_hyperbolic_set(), [1.0])):
        vals = [evaluate(oracle, x, model, dirs, eps=e).value
                for e in (0.5, 0.1, 0.01, 0.001)]
        base = evaluate(oracle, x, model, dirs, eps=0.0).value
        mono = all(vals[i] >= vals[i + 1] - 1e-12 for i in range(3)) and vals[-1] >= base - 1e-12
        gap = abs(vals[-1] - base)
        ok &= mono and gap <= tol
        msgs.append(f"{oracle.name}: gap {gap:.2e} mono {mono}")
    return ok, "; ".join(msgs)


def check_growth_diagnostics(quick=False):
    n = 500 if quick else 2000
    dirs = sample_sphere(2, n, seed=DEFAULT_SEED, method=SphereMethod.QMC)
    ratio = lambda target, x: evaluate(target, [x], _model(2), dirs).gradient().max_ratio
    half = ratio(make_halfspace([1.0, 0.0]), 1.0)
    hyp = ratio(make_hyperbolic_system(), 1.0)
    slab = ratio(make_slab([1.0, 0.0], lambda x: x[0], lambda x: np.array([1.0])), -1.0)
    ok = abs(half - 1.0) <= 1e-9 and hyp <= 1.0 + 1e-9 and np.isfinite(slab)
    return ok, (f"halfspace ratio {half:.6f}; hyperbolic ratio {hyp:.6f} <= 1; "
                f"slab ratio {slab:.3f}")


def check_oracle_gradient_eps0(quick=False):
    # The hyperbolic set and system are one body; a ball around the mean has
    # the chi pdf as its derivative.
    n = 2000 if quick else 10000

    def grad(target, m, x, eps=None):
        dirs = sample_sphere(m, n, seed=DEFAULT_SEED, method=SphereMethod.QMC)
        return evaluate(target, [x], _model(m), dirs, eps=eps).gradient().gradient[0]

    rel = max(abs(grad(make_hyperbolic_set(), 2, x, 0.0) / grad(make_hyperbolic_system(), 2, x)
                  - 1.0) for x in (0.75, 2.25, 3.25))
    err = max(abs(grad(make_ball(np.zeros(m)), m, 1.5, 0.0) - chi_pdf(m, 1.5))
              for m in (2, 8))
    ok = rel <= 1e-7 and err <= 1e-12
    return ok, f"hyperbolic set vs system {rel:.2e} rel; ball vs chi pdf {err:.2e}"


def check_crn_identity(quick=False):
    n = 500 if quick else 2000
    model = _model(2)
    dirs = sample_sphere(2, n, seed=3, method=SphereMethod.QMC)
    sys_ = make_halfspace([1.0, 0.0])
    x = np.array([1.0])
    g = evaluate(sys_, x, model, dirs).gradient().gradient[0]
    fd = fd_gradient(sys_, x, model, dirs, h0=5e-5)[0]
    rel = abs(fd - g) / max(abs(g), 1e-12)
    ok = rel <= 1e-6
    return ok, f"relative FD mismatch {rel:.2e}"


ALL_CHECKS = (
    ("chi-normalization", check_chi_normalization),
    ("chi-cdf-pdf-consistency", check_chi_consistency),
    ("chi-cdf-reference", check_chi_cdf_reference),
    ("sphere-construction", check_sphere_construction),
    ("sphere-unbiasedness", check_sphere_unbiasedness),
    ("halfspace-analytic", check_halfspace_analytic),
    ("slab-analytic", check_slab_analytic),
    ("radial-lemmas", check_radial_lemmas),
    ("enlargement-limit", check_enlargement_limit),
    ("growth-diagnostics", check_growth_diagnostics),
    ("oracle-gradient-eps0", check_oracle_gradient_eps0),
    ("crn-identity", check_crn_identity),
)


def run_all(quick: bool = False):
    """Run every registered check; returns a list of (name, ok, detail)."""
    results = []
    for name, fn in ALL_CHECKS:
        try:
            ok, detail = fn(quick=quick)
        except Exception as exc:          # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail))
    return results
