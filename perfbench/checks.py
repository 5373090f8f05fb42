"""Reference values that do not use sphrad's ray solver, and check tolerances.

References:

* halfspace: Phi(x) and phi(x);
* slab: 2 Phi(t) - 1 and its derivative, t = sqrt(exp(-2x) - 1);
* ball: the chi cdf and pdf at x + eps (``scipy.stats.chi``);
* hyperbolic, inequality form: 1-D quadrature over z1;
* hyperbolic, eps-enlarged: plain Monte Carlo on xi drawn at set-up, with a
  distance-to-set computation of its own (the quartic stationarity
  equation), and common-draw central differences for the gradient;
* energy dispatch: plain Monte Carlo on xi at the final dispatch.

Tolerances come from the estimator's error, not from one seed.  For the
fixtures whose ray roots have a closed form, the per-direction
contributions of the value and gradient estimators are evaluated on a plain
Monte Carlo sample of antithetic direction pairs, the construction the
program uses.  Their spread gives the standard error of the estimator at n
directions; the scrambled-QMC estimate the program makes is at least as
accurate on these smooth integrands.  A check passes within ``Z`` standard
errors (combined with the reference's own standard error) plus the
reference's known bias and an absolute floor for root-solve round-off.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, special, stats

#: Standard errors allowed before a check counts as missed.
Z = 6.0
#: Absolute floor: ray roots are solved to about 1e-10 in radius.
FLOOR = 1e-8
#: Plain Monte Carlo sizes.
PAIRS = 2000
HYP_XI = 200000
ENERGY_XI = 500000
#: Central-difference half step for the enlarged hyperbolic gradient reference.
HYP_FD_H = 0.05
#: Largest enlargement the sweep uses, plus margin; farther draws are not solved.
HYP_REACH = 0.6


def _phi(z):
    return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)


def _pair_se(c, n):
    """Standard error at n directions of the mean of antithetic pairs."""
    half = c.shape[0] // 2
    return float(np.std(0.5 * (c[:half] + c[half:]))) / np.sqrt(n / 2)


class References:
    """References and tolerances for the sweep fixtures; built once per run."""

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 7001])
        self.dirs = {}
        for m in (2, 8):
            g = rng.standard_normal((PAIRS, m))
            v = g / np.linalg.norm(g, axis=1, keepdims=True)
            self.dirs[m] = np.vstack([v, -v])
        self.xi = rng.standard_normal((HYP_XI, 2))
        self._hyp_dist = {}

    def halfspace(self, x, m, n):
        t = self.dirs[m][:, 0]
        law = stats.chi(m)
        pos = t > 0
        ts = np.where(pos, t, 1.0)
        vc = np.where(pos, law.cdf(x / ts), 1.0)
        gc = np.where(pos, law.pdf(x / ts) / ts, 0.0)
        return (stats.norm.cdf(x), stats.norm.pdf(x), _pair_se(vc, n), _pair_se(gc, n))

    def slab(self, x, m, n):
        e = np.exp(-2.0 * x)
        thr = np.sqrt(e - 1.0)
        dthr = -e / thr
        t = np.abs(self.dirs[m][:, 0])
        law = stats.chi(m)
        vc = law.cdf(thr / t)
        gc = law.pdf(thr / t) * dthr / t
        return (2.0 * stats.norm.cdf(thr) - 1.0, 2.0 * stats.norm.pdf(thr) * dthr,
                _pair_se(vc, n), _pair_se(gc, n))

    def hyperbolic(self, x, n):
        """S(x) = {(z1+2)(z2+2) >= x, z >= -2} under a standard 2-D Gaussian."""
        quad = dict(epsabs=1e-13, epsrel=1e-12, limit=200)
        value = integrate.quad(
            lambda z: _phi(z) * special.ndtr(2.0 - x / (z + 2.0)), -2.0, np.inf, **quad)[0]
        grad = -integrate.quad(
            lambda z: _phi(z) * _phi(x / (z + 2.0) - 2.0) / (z + 2.0), -2.0, np.inf, **quad)[0]
        # Along z = r v, h(r) = (r v1 + 2)(r v2 + 2) - x = a r^2 + b r + c with
        # h(0) = 4 - x > 0.  A ray leaves S(x) only if some v_i < 0, and then
        # h reaches -x at the first cap, so the exit is the smallest positive
        # root of h, strictly before any cap.
        v1, v2 = self.dirs[2][:, 0], self.dirs[2][:, 1]
        a, b, c = v1 * v2, 2.0 * (v1 + v2), 4.0 - x
        exits = (v1 < 0) | (v2 < 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = -0.5 * (b + np.copysign(np.sqrt(np.maximum(b * b - 4 * a * c, 0.0)), b))
            roots = np.stack([q / a, c / q])
        roots[~(roots > 0)] = np.inf
        rho = np.where(exits, roots.min(axis=0), np.inf)
        law = stats.chi(2)
        fin = np.isfinite(rho)
        r = np.where(fin, rho, 1.0)
        vc = np.where(fin, law.cdf(r), 1.0)
        gc = np.where(fin, -law.pdf(r) / np.abs(2.0 * a * r + b), 0.0)
        return value, grad, _pair_se(vc, n), _pair_se(gc, n)

    def hyperbolic_distance(self, x):
        """Distance of every xi draw to S(x); +inf beyond ``HYP_REACH``."""
        key = float(x)
        if key not in self._hyp_dist:
            self._hyp_dist[key] = _hyperbolic_distance(self.xi, key)
        return self._hyp_dist[key]

    def hyperbolic_enlarged(self, x, eps, n):
        """Returns (value, grad, value se, grad se, grad bias bound)."""
        inside = self.hyperbolic_distance(x) <= eps
        p = float(inside.mean())
        h = HYP_FD_H
        diff = ((self.hyperbolic_distance(x + h) <= eps).astype(float)
                - (self.hyperbolic_distance(x - h) <= eps))
        grad = float(diff.mean()) / (2.0 * h)
        # The estimator's own spread is taken from the plain body at this x;
        # the central-difference bias from the plain body's exact quadrature.
        _, g0, sv, sg = self.hyperbolic(x, n)
        bias = abs((self.hyperbolic(x + h, n)[0] - self.hyperbolic(x - h, n)[0])
                   / (2.0 * h) - g0)
        se_value = np.hypot(sv, np.sqrt(p * (1.0 - p) / inside.size))
        se_grad = np.hypot(sg, float(diff.std()) / np.sqrt(diff.size) / (2.0 * h))
        return p, grad, float(se_value), float(se_grad), bias

    def expected(self, fixture, command, x, eps, dim, n):
        """Return (reference, tolerance) for one ``eval`` or ``grad`` call."""
        bias = 0.0
        if fixture == "halfspace":
            value, grad, sv, sg = self.halfspace(x, dim, n)
        elif fixture == "slab":
            value, grad, sv, sg = self.slab(x, dim, n)
        elif fixture == "ball":
            law = stats.chi(dim)
            value, grad, sv, sg = law.cdf(x + eps), law.pdf(x + eps), 0.0, 0.0
        elif fixture == "hyperbolic" and not eps:
            # Inequality form, or the plain body (eps = 0): same set.
            value, grad, sv, sg = self.hyperbolic(x, n)
        else:
            value, grad, sv, sg, bias = self.hyperbolic_enlarged(x, eps, n)
        if command == "eval":
            return float(value), Z * sv + FLOOR
        return float(grad), Z * sg + bias + FLOOR


def _hyperbolic_distance(xi, x):
    """Euclidean distance to {u v >= x, u, v > 0}, u = z1 + 2, v = z2 + 2.

    An outside point (a, b) projects onto the branch u v = x at (t, x/t),
    where t > 0 solves t^4 - a t^3 + b x t - x^2 = 0.  The quartic's roots
    come from companion matrices and are polished by Newton steps.  A draw
    within ``HYP_REACH`` of the set satisfies (a + r)(b + r) >= x with
    a, b > -r; draws failing that test are left at +inf.
    """
    a, b = xi[:, 0] + 2.0, xi[:, 1] + 2.0
    inside = (a > 0) & (b > 0) & (a * b >= x)
    r = HYP_REACH
    near = ~inside & (a > -r) & (b > -r) & ((a + r) * (b + r) >= x)
    dist = np.where(inside, 0.0, np.inf)
    an, bn = a[near][:, None], b[near][:, None]
    k = an.shape[0]
    comp = np.zeros((k, 4, 4))
    comp[:, 0, 0] = an[:, 0]
    comp[:, 0, 2] = -bn[:, 0] * x
    comp[:, 0, 3] = x * x
    comp[:, 1, 0] = comp[:, 2, 1] = comp[:, 3, 2] = 1.0
    roots = np.linalg.eigvals(comp)
    t = np.where((np.abs(roots.imag) < 1e-6) & (roots.real > 0), roots.real, np.nan)
    for _ in range(3):
        f = t ** 4 - an * t ** 3 + bn * x * t - x * x
        df = 4 * t ** 3 - 3 * an * t ** 2 + bn * x
        t = t - f / df
    d2 = (t - an) ** 2 + (x / t - bn) ** 2
    dist[near] = np.sqrt(np.nanmin(d2, axis=1))
    return dist


def energy_reference(model, x, wind_coeff, seed: int, n: int = ENERGY_XI,
                     chunk: int = 100000):
    """Plain Monte Carlo P[all dispatch constraints hold] at ``x``.

    Draws xi = mean + L w and evaluates, per period, the wind constraint
    p_wind <= c z_w^3 on the domain z_w >= 0, and the load constraint
    z_l <= p_wind + p_gen.  Returns (probability, standard error).
    """
    rng = np.random.default_rng([seed, 7002])
    T = x.shape[0] // 2
    pw, pg = x[:T], x[T:]
    hits = 0
    for start in range(0, n, chunk):
        k = min(chunk, n - start)
        z = model.mean + rng.standard_normal((k, model.dim)) @ model.factor_L.T
        zw, zl = z[:, :T], z[:, T:]
        ok = (np.all(zw >= 0.0, axis=1) & np.all(pw <= wind_coeff * zw ** 3, axis=1)
              & np.all(zl <= pw + pg, axis=1))
        hits += int(ok.sum())
    p = hits / n
    return p, float(np.sqrt(p * (1.0 - p) / n))
