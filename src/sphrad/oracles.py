"""Constraint abstractions and built-in fixtures.

Two families are supported.  :class:`InequalitySystem` describes finitely
many smooth constraints ``g_i(x, z) <= 0`` that are quasi-convex in ``z``;
:class:`ConvexSetOracle` describes a parametric convex body through
membership and Euclidean projection.  All callbacks are batched over the
``z`` argument: they accept an array of shape ``(k, m)`` and return per-row
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InteriorViolated, ProjectionDiverged
from .gaussian import GaussianModel, build_model


@dataclass(frozen=True)
class AffineDomainCap:
    """Affine validity limit ``a . z + b >= 0`` for the ray scan.

    Constraints that are only meaningful on part of the space declare their
    domain through caps; along a ray the cap yields a closed-form bound on
    the radius, handled structurally by the radial solver.
    """

    a: np.ndarray
    b: float
    label: str = ""


@dataclass(frozen=True)
class InequalitySystem:
    """Family g_i(x, z) <= 0, i = 0..s-1, each quasi-convex in z.

    ``eval_g(i, x, Z)`` maps ``Z`` of shape (k, m) to values of shape (k,);
    ``grad_x_g`` returns (k, n) and ``grad_z_g`` returns (k, m).

    ``halfspaces``, when given, declares that every sublevel set is a
    halfspace in z: ``halfspaces(x)`` returns ``(W, t)`` of shapes (s, m) and
    (s,) with ``{z : g_i(x, z) <= 0} = {z : W[i] . z <= t[i]}``.  The radial
    solver then finds the ray roots in closed form instead of by scanning.
    """

    s: int
    x_dim: int
    z_dim: int
    eval_g: Callable
    grad_x_g: Callable
    grad_z_g: Callable
    domain_caps: tuple = ()
    name: str = "system"
    halfspaces: Optional[Callable] = None


@dataclass(frozen=True)
class ConvexSetOracle:
    """Parametric convex body S(x) exposed through membership and projection.

    ``contains(x, Z)`` returns booleans of shape (k,); ``project(x, Z)``
    returns the Euclidean projections, shape (k, m).  ``sensitivity`` is an
    optional callback ``(x, Z, P, U) -> (k, n)`` supplying the decision-space
    sensitivity of the body at boundary points, where ``U = Z - P`` are the
    projection residuals; it is required for enlarged-gradient estimation.
    """

    z_dim: int
    contains: Callable
    project: Callable
    sensitivity: Optional[Callable] = None
    x_dim: int = 1
    name: str = "set"


def check_interior(system: InequalitySystem, x, mean) -> None:
    """Require g_i(x, mean) < 0 for every i and strict cap validity at the mean."""
    x = np.asarray(x, dtype=float).reshape(-1)
    mean2 = np.asarray(mean, dtype=float).reshape(1, -1)
    for i in range(system.s):
        gi = float(np.asarray(system.eval_g(i, x, mean2)).reshape(-1)[0])
        if not gi < 0:
            raise InteriorViolated(
                f"{system.name}: g_{i}(x, mean) = {gi:.6g} is not negative", index=i)
    for k, cap in enumerate(system.domain_caps):
        val = float(cap.a @ mean2[0] + cap.b)
        if not val > 0:
            raise InteriorViolated(
                f"{system.name}: domain cap {k} ({cap.label}) not strictly valid at the mean",
                index=k)


def check_oracle_interior(oracle: ConvexSetOracle, x, mean) -> None:
    x = np.asarray(x, dtype=float).reshape(-1)
    mean2 = np.asarray(mean, dtype=float).reshape(1, -1)
    inside = np.asarray(oracle.contains(x, mean2)).reshape(-1)
    if not bool(inside[0]):
        raise InteriorViolated(f"{oracle.name}: mean is not contained in S(x)")


# ---------------------------------------------------------------------------
# analytic fixtures
# ---------------------------------------------------------------------------


def make_halfspace(a) -> InequalitySystem:
    """g(x, z) = <a, z> - x with the level x as the scalar decision.

    ``a`` must be a unit vector.  The closed-form probability under a
    standard Gaussian is the univariate normal cdf of the level.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    if abs(np.linalg.norm(a) - 1.0) > 1e-12:
        raise ValueError("a must be a unit vector")
    m = a.shape[0]

    def eval_g(i, x, Z):
        return Z @ a - float(np.asarray(x).reshape(-1)[0])

    def grad_x_g(i, x, Z):
        return np.full((Z.shape[0], 1), -1.0)

    def grad_z_g(i, x, Z):
        return np.broadcast_to(a, Z.shape).copy()

    def halfspaces(x):
        return a[None, :], np.asarray(x, dtype=float).reshape(-1)[:1]

    return InequalitySystem(s=1, x_dim=1, z_dim=m, eval_g=eval_g,
                            grad_x_g=grad_x_g, grad_z_g=grad_z_g,
                            name="halfspace", halfspaces=halfspaces)


def make_slab(c, f, f_grad, x_dim: int = 1) -> InequalitySystem:
    """g(x, z) = f(x) + 0.5*log(1 + (c.z)^2), quasi-convex but not convex in z.

    Valid only where f(x) < 0; the sublevel set is the slab |c.z| <=
    sqrt(exp(-2 f(x)) - 1).
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    if np.linalg.norm(c) == 0:
        raise ValueError("c must be nonzero")
    m = c.shape[0]

    def _f(x):
        val = float(f(np.asarray(x, dtype=float).reshape(-1)))
        if val >= 0:
            raise InteriorViolated(f"slab: f(x) = {val:.6g} must be negative", index=0)
        return val

    def eval_g(i, x, Z):
        t = Z @ c
        return _f(x) + 0.5 * np.log1p(t * t)

    def grad_x_g(i, x, Z):
        _f(x)
        gx = np.asarray(f_grad(np.asarray(x, dtype=float).reshape(-1)),
                        dtype=float).reshape(-1)
        return np.broadcast_to(gx, (Z.shape[0], gx.shape[0])).copy()

    def grad_z_g(i, x, Z):
        t = Z @ c
        return (t / (1.0 + t * t))[:, None] * c

    return InequalitySystem(s=1, x_dim=x_dim, z_dim=m, eval_g=eval_g,
                            grad_x_g=grad_x_g, grad_z_g=grad_z_g,
                            name="slab")


def slab_threshold(level: float) -> float:
    """Boundary value of |c.z| for the slab at f(x) = level < 0."""
    if level >= 0:
        raise ValueError("level must be negative")
    return float(np.sqrt(np.expm1(-2.0 * level)))


def make_constant(value: float = -1.0, z_dim: int = 2) -> InequalitySystem:
    """g(x, z) = value < 0 everywhere; every direction is infinite."""
    if value >= 0:
        raise ValueError("value must be negative")

    def eval_g(i, x, Z):
        return np.full(Z.shape[0], value)

    def grad_x_g(i, x, Z):
        return np.zeros((Z.shape[0], 1))

    def grad_z_g(i, x, Z):
        return np.zeros((Z.shape[0], z_dim))

    return InequalitySystem(s=1, x_dim=1, z_dim=z_dim, eval_g=eval_g,
                            grad_x_g=grad_x_g, grad_z_g=grad_z_g,
                            name="constant")


# ---------------------------------------------------------------------------
# hyperbolic fixture: S(x) = {(z1+2)(z2+2) >= x, z1 >= -2, z2 >= -2}
# ---------------------------------------------------------------------------


def make_hyperbolic_system() -> InequalitySystem:
    """Inequality form of the hyperbolic body, valid for x in (0, 4).

    g(x, z) = x - (z1+2)(z2+2) restricted to the quadrant z >= -2, the
    quadrant being declared through affine domain caps.
    """

    def eval_g(i, x, Z):
        xv = float(np.asarray(x).reshape(-1)[0])
        return xv - (Z[:, 0] + 2.0) * (Z[:, 1] + 2.0)

    def grad_x_g(i, x, Z):
        return np.ones((Z.shape[0], 1))

    def grad_z_g(i, x, Z):
        return np.stack([-(Z[:, 1] + 2.0), -(Z[:, 0] + 2.0)], axis=1)

    caps = (AffineDomainCap(a=np.array([1.0, 0.0]), b=2.0, label="z1 >= -2"),
            AffineDomainCap(a=np.array([0.0, 1.0]), b=2.0, label="z2 >= -2"))
    return InequalitySystem(s=1, x_dim=1, z_dim=2, eval_g=eval_g,
                            grad_x_g=grad_x_g, grad_z_g=grad_z_g,
                            domain_caps=caps, name="hyperbolic")


def _hyperbolic_project(x: float, W: np.ndarray, tol: float = 1e-12,
                        max_newton: int = 200, max_bisect: int = 50) -> np.ndarray:
    """Project rows of W onto the boundary curve (s+2)(t+2) = x, s,t > -2.

    The nearest point minimizes D(s) = (s-w1)^2 + (x/(s+2)-2-w2)^2 over the
    branch parameter s; the stationarity equation is solved by damped Newton
    with a maintained bracket and a pure bisection fallback.
    """
    w1, w2 = W[:, 0], W[:, 1]

    def dD(s):
        q = x / (s + 2.0)
        return 2.0 * (s - w1) + 2.0 * (q - 2.0 - w2) * (-q / (s + 2.0))

    def d2D(s):
        q = x / (s + 2.0)
        qp = -q / (s + 2.0)                      # d q / d s
        return 2.0 + 2.0 * (qp * qp + (q - 2.0 - w2) * (2.0 * q / (s + 2.0) ** 2))

    k = W.shape[0]
    # lower bracket end: dD -> -inf as s -> -2+
    lo = np.full(k, -2.0 + 1e-9)
    bad = dD(lo) >= 0
    shrink = 1e-9
    for _ in range(12):
        if not bad.any():
            break
        shrink *= 1e-2
        lo = np.where(bad, -2.0 + shrink, lo)
        bad = dD(lo) >= 0
    hi = np.maximum(w1, lo) + 1.0
    for _ in range(200):
        mask = dD(hi) <= 0
        if not mask.any():
            break
        hi = np.where(mask, lo + 2.0 * (hi - lo), hi)

    s = 0.5 * (lo + hi)
    val = dD(s)
    converged = np.zeros(k, dtype=bool)
    for _ in range(max_newton):
        width = hi - lo
        converged = (np.abs(val) <= tol) | (width <= 1e-13 * np.maximum(1.0, np.abs(s)))
        if converged.all():
            break
        pos = val > 0
        hi = np.where(pos & ~converged, s, hi)
        lo = np.where(~pos & ~converged, s, lo)
        curv = d2D(s)
        with np.errstate(divide="ignore", invalid="ignore"):
            s_newton = s - val / curv
        inside = (s_newton > lo) & (s_newton < hi) & np.isfinite(s_newton) & (curv > 0)
        s = np.where(converged, s, np.where(inside, s_newton, 0.5 * (lo + hi)))
        val = dD(s)
    if not converged.all():
        for _ in range(max_bisect):
            mid = 0.5 * (lo + hi)
            vm = dD(mid)
            pos = vm > 0
            hi = np.where(pos, mid, hi)
            lo = np.where(pos, lo, mid)
        s = 0.5 * (lo + hi)
        if np.any((hi - lo) > 1e-8 * np.maximum(1.0, np.abs(s))):
            raise ProjectionDiverged("hyperbolic projection failed to converge")
    return np.stack([s, x / (s + 2.0) - 2.0], axis=1)


def make_hyperbolic_set() -> ConvexSetOracle:
    """Projection oracle for the hyperbolic body; x must lie in (0, 4)."""

    def contains(x, Z):
        xv = float(np.asarray(x).reshape(-1)[0])
        return ((Z[:, 0] + 2.0) * (Z[:, 1] + 2.0) >= xv) & (Z[:, 0] >= -2.0) & (Z[:, 1] >= -2.0)

    def project(x, Z):
        xv = float(np.asarray(x).reshape(-1)[0])
        if not 0.0 < xv < 4.0:
            raise InteriorViolated(f"hyperbolic set requires x in (0, 4), got {xv}")
        out = np.array(Z, dtype=float, copy=True)
        outside = ~contains(x, Z)
        if outside.any():
            out[outside] = _hyperbolic_project(xv, Z[outside])
        return out

    def sensitivity(x, Z, P, U):
        # Boundary normal is parallel to (p2+2, p1+2); the decision-space
        # sensitivity has magnitude |u| / |(p2+2, p1+2)| and positive sign
        # because growing x shrinks the body.
        norms = np.hypot(P[:, 1] + 2.0, P[:, 0] + 2.0)
        return (np.linalg.norm(U, axis=1) / norms)[:, None]

    return ConvexSetOracle(z_dim=2, contains=contains, project=project,
                           sensitivity=sensitivity, x_dim=1, name="hyperbolic_set")


def make_ball(center=None, z_dim: int = 2) -> ConvexSetOracle:
    """S(x) = closed ball of radius x around ``center`` (default origin)."""
    if center is None:
        center = np.zeros(z_dim)
    center = np.asarray(center, dtype=float).reshape(-1)
    m = center.shape[0]

    def contains(x, Z):
        xv = float(np.asarray(x).reshape(-1)[0])
        return np.linalg.norm(Z - center, axis=1) <= xv

    def project(x, Z):
        xv = float(np.asarray(x).reshape(-1)[0])
        if xv <= 0:
            raise InteriorViolated(f"ball radius must be positive, got {xv}")
        diff = Z - center
        norms = np.linalg.norm(diff, axis=1)
        out = np.array(Z, dtype=float, copy=True)
        outside = norms > xv
        if outside.any():
            out[outside] = center + diff[outside] * (xv / norms[outside])[:, None]
        return out

    def sensitivity(x, Z, P, U):
        # Growing the radius grows the body, hence the negative sign.
        return -np.linalg.norm(U, axis=1)[:, None]

    return ConvexSetOracle(z_dim=m, contains=contains, project=project,
                           sensitivity=sensitivity, x_dim=1, name="ball")


# ---------------------------------------------------------------------------
# energy dispatch fixture
# ---------------------------------------------------------------------------


def make_energy_system(params) -> InequalitySystem:
    """Two-constraint-per-period dispatch system over z = (wind speed, load).

    Decision x = (p_wind, p_gen), each of length T.  Per period t:

        wind:  p_wind[t] - c * z1[t]^3 <= 0   on the domain z1[t] >= 0
        load:  z2[t] - p_wind[t] - p_gen[t] <= 0

    Wind-speed positivity enters as an affine domain cap per period rather
    than an extra inequality, which keeps the ray geometry well behaved when
    p_wind[t] is at zero.  Both sublevel sets are halfspaces in z (wind:
    ``z1[t] >= cbrt(p_wind[t] / c)``, as ``c > 0``) and are declared through
    ``halfspaces``, so every ray root is explicit.
    """
    T = int(params.periods)
    c = float(params.wind_coeff)
    if not c > 0:
        raise ValueError("wind_coeff must be positive")
    m = 2 * T

    def split(x):
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.shape[0] != 2 * T:
            raise ValueError(f"decision must have length {2 * T}")
        return x[:T], x[T:]

    def eval_g(i, x, Z):
        pw, pg = split(x)
        if i < T:
            return pw[i] - c * Z[:, i] ** 3
        t = i - T
        return Z[:, T + t] - pw[t] - pg[t]

    def grad_x_g(i, x, Z):
        k = Z.shape[0]
        out = np.zeros((k, 2 * T))
        if i < T:
            out[:, i] = 1.0
        else:
            t = i - T
            out[:, t] = -1.0
            out[:, T + t] = -1.0
        return out

    def grad_z_g(i, x, Z):
        k = Z.shape[0]
        out = np.zeros((k, m))
        if i < T:
            out[:, i] = -3.0 * c * Z[:, i] ** 2
        else:
            out[:, i] = 1.0
        return out

    W = np.diag(np.r_[np.full(T, -1.0), np.ones(T)])

    def halfspaces(x):
        pw, pg = split(x)
        return W, np.r_[-np.cbrt(pw / c), pw + pg]

    caps = tuple(
        AffineDomainCap(a=np.eye(m)[t], b=0.0, label=f"wind speed t={t} >= 0")
        for t in range(T)
    )
    return InequalitySystem(s=2 * T, x_dim=2 * T, z_dim=m, eval_g=eval_g,
                            grad_x_g=grad_x_g, grad_z_g=grad_z_g,
                            domain_caps=caps, name="energy", halfspaces=halfspaces)


def build_energy_covariance(params) -> GaussianModel:
    """Assemble the (wind, load) Gaussian model with block correlations.

    Within-block correlations decay geometrically with lag; the cross block
    is the elementwise product of the two within-block correlations scaled
    by the cross coefficient.  Positive definiteness is verified by the
    Cholesky factorization and rejected with :class:`NotPositiveDefinite`.
    """
    T = int(params.periods)
    if T < 1:
        raise ValueError("periods must be >= 1")
    lag = np.abs(np.subtract.outer(np.arange(T), np.arange(T)))
    c_wind = float(params.rho_wind) ** lag
    c_load = float(params.rho_load) ** lag
    c_cross = float(params.rho_cross) * c_wind * c_load
    corr = np.block([[c_wind, c_cross], [c_cross.T, c_load]])
    stddev = np.sqrt(np.r_[np.full(T, float(params.var_wind)),
                           np.full(T, float(params.var_load))])
    cov = corr * np.outer(stddev, stddev)
    mean = np.r_[np.full(T, float(params.mu_wind)), np.full(T, float(params.mu_load))]
    return build_model(mean, cov)
