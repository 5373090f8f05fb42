"""Constraint abstractions and built-in fixtures.

Two families are supported.  :class:`InequalitySystem` describes finitely
many smooth constraints ``g_i(x, z) <= 0`` that are quasi-convex in ``z``;
:class:`ConvexSetOracle` describes a parametric convex body through its
Euclidean projection alone.  All callbacks are batched over the
``z`` argument: they accept an array of shape ``(k, m)``, which may be a
column-major view they must not write into, and return per-row results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InteriorViolated, ProjectionDiverged
from .gaussian import GaussianModel, build_model


@dataclass(frozen=True)
class InequalitySystem:
    """Family g_i(x, z) <= 0, i = 0..s-1, each quasi-convex in z.

    ``eval_g(i, x, Z)`` maps ``Z`` of shape (k, m) to values of shape (k,);
    ``grad_x_g`` returns (k, n) and ``grad_z_g`` returns (k, m).

    ``halfspaces``, when given, is ``(W, t)`` with ``{z : g_i(x, z) <= 0} =
    {z : W[i] . z <= t(x)[i]}``: ``W`` a constant (s, m) array and ``t(x)``
    of shape (s,).  The ray roots are then closed-form.  Normals that move
    with x are left undeclared.  ``domain_caps`` is ``(C, c)``, constant
    rows ``C z <= c`` of shapes (k, m) and (k,) in the same orientation, that
    limit where the constraints are valid; None is no cap.  ``W``, ``C`` and
    ``c`` are checked here once and kept as read-only copies.
    """

    s: int
    x_dim: int
    z_dim: int
    eval_g: Callable
    grad_x_g: Callable
    grad_z_g: Callable
    domain_caps: Optional[tuple] = None
    name: str = "system"
    halfspaces: Optional[tuple] = None

    def __post_init__(self):
        if self.halfspaces is not None:
            W, t = self.halfspaces if isinstance(self.halfspaces, tuple) else (None, None)
            W = _frozen(W, (self.s, self.z_dim))
            if W is None or not callable(t):
                raise ValueError(f"{self.name}: halfspaces must be (W, t) with W a constant, "
                                 f"finite {(self.s, self.z_dim)} array and t a callable t(x)")
            object.__setattr__(self, "halfspaces", (W, t))
        caps = (np.empty((0, self.z_dim)), ()) if self.domain_caps is None else self.domain_caps
        C, c = caps if isinstance(caps, tuple) and len(caps) == 2 else (None, None)
        k = len(c) if np.ndim(c) == 1 else -1
        C, c = _frozen(C, (k, self.z_dim)), _frozen(c, (k,))
        if C is None or c is None:
            raise ValueError(f"{self.name}: domain_caps must be (C, c) with C a constant, "
                             f"finite (k, {self.z_dim}) array and c a finite (k,) array")
        object.__setattr__(self, "domain_caps", (C, c))


def _frozen(A, shape):
    """A read-only float copy of ``A``, or None unless it is a finite array of ``shape``."""
    A = None if callable(A) else np.array(A, dtype=float)
    if np.shape(A) != shape or not np.isfinite(A).all():
        return None
    A.flags.writeable = False
    return A


@dataclass(frozen=True)
class ConvexSetOracle:
    """Parametric convex body S(x) exposed through its Euclidean projection.

    ``project(x, Z)`` returns the projections, shape (k, m), and must return
    a point of S(x) unchanged, bit for bit: membership is read as
    ``project(x, z) == z``.  ``sensitivity`` is an optional callback
    ``(x, P, n) -> (k, x_dim)`` for boundary points ``P`` with unit outward
    normals ``n``: minus the x-gradient of the support function of S(x) at
    ``n``, so ``grad_x g / |grad_z g|`` for a body ``{g <= 0}``.  Gradients
    need it, at every eps >= 0.
    """

    z_dim: int
    project: Callable
    sensitivity: Optional[Callable] = None
    x_dim: int = 1
    name: str = "set"


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

    def levels(x):
        return np.asarray(x, dtype=float).reshape(-1)[:1]

    return InequalitySystem(s=1, x_dim=1, z_dim=m, eval_g=eval_g,
                            grad_x_g=grad_x_g, grad_z_g=grad_z_g,
                            name="halfspace", halfspaces=(a[None, :], levels))


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
    quadrant being declared through the domain caps ``-z <= 2``.
    """

    def eval_g(i, x, Z):
        xv = float(np.asarray(x).reshape(-1)[0])
        return xv - (Z[:, 0] + 2.0) * (Z[:, 1] + 2.0)

    def grad_x_g(i, x, Z):
        return np.ones((Z.shape[0], 1))

    def grad_z_g(i, x, Z):
        return np.stack([-(Z[:, 1] + 2.0), -(Z[:, 0] + 2.0)], axis=1)

    return InequalitySystem(s=1, x_dim=1, z_dim=2, eval_g=eval_g,
                            grad_x_g=grad_x_g, grad_z_g=grad_z_g,
                            domain_caps=(-np.eye(2), [2.0, 2.0]), name="hyperbolic")


_PROJECT_MAX_NEWTON = 200     # ray points take at most 10 steps, |w| <= 1e9 at most 26


def _hyperbolic_project(x: float, W: np.ndarray) -> np.ndarray:
    """Project exterior rows of W onto the boundary curve (s+2)(t+2) = x, s,t > -2.

    In ``a = s + 2``, with ``(p, q) = w + 2``, the foot of ``w`` is a root of
    ``f(a) = a^3 (a - p) + x (q a - x)``, ``a^3 / 2`` times the slope of the
    squared distance.  An exterior ``w`` has one: inward normal rays, along
    ``(t+2, s+2) > 0``, stay in the body, so only the outward normal at the
    projection ``a* >= p`` passes through ``w``.  As ``f'' = 6a (2a - p) > 0``
    on ``[a*, inf)``, Newton falls monotonically to ``a*`` from any start above
    it.  Such starts are ``p + |w - c| >= p + |w - P(w)| >= a*`` for any
    curve point ``c``: at ``a = max(p, sqrt x)``, and where ``q > 0`` at the
    same height, which gives ``x / q`` (``p < x / q`` outside the body); and
    ``max(p, 0) + t`` with ``t = cbrt(x |q|) + sqrt(x)``, where
    ``f >= a t^3 - x |q| a - x^2 >= 0``.  Newton starts at the smallest,
    which is within a factor of the foot far below or left of the body.
    Far left (``p < 0``) ``p + |w - c|`` cancels, so that start is taken as
    ``(c (c - 2p) + e^2) / (|w - c| - p)``, ``e = q - x / c``; and a step
    ``a - f / f'`` larger than ``a / 2``, which would cancel too, is taken
    as the one quotient ``(a^3 (3a - 2p) + x^2) / (a^2 (4a - 3p) + x q)``.
    Smaller steps keep the difference, which is the more accurate near the
    foot.  A row stops when ``f <= 0`` or its step is within 4 ulps; only
    moving rows are iterated, so each row's result is its own.
    """
    p, q = W[:, 0] + 2.0, W[:, 1] + 2.0
    r = np.sqrt(x)
    c = np.maximum(p, r)        # r where p < 0
    e = q - x / c
    d = np.hypot(p - c, e)
    g = d + np.abs(p)           # p + d, or d - p >= |e| where p < 0 and p + d cancels
    a = np.where(p < 0.0, r * (r - 2.0 * p) / g + e * (e / g), g)
    a = np.minimum(a, np.maximum(p, 0.0) + np.cbrt(x * np.abs(q)) + r)
    with np.errstate(divide="ignore"):      # q = 0: no curve point at that height
        a = np.minimum(a, np.where(q > 0.0, x / q, np.inf))
    live, a_k = np.arange(W.shape[0]), a     # the moving rows and their iterates
    for _ in range(_PROJECT_MAX_NEWTON):
        a2 = a_k * a_k
        a3, df = a2 * a_k, a2 * (4.0 * a_k - 3.0 * p) + x * q
        step = np.maximum((a3 * (a_k - p) + x * (q * a_k - x)) / df, 0.0)    # 0 where f <= 0
        new = a_k - step
        far = np.flatnonzero(new < step)    # a_k - step cancels: take the one quotient
        if far.size:
            new[far] = (a3[far] * (3.0 * a_k[far] - 2.0 * p[far]) + x * x) / df[far]
        stop = step <= 4.0 * np.spacing(a_k)    # NaN (overflow) runs to the cap
        if stop.any():
            stopped, keep = np.flatnonzero(stop), np.flatnonzero(~stop)
            a[live.take(stopped)] = new.take(stopped)
            live, new, p, q = (v.take(keep) for v in (live, new, p, q))
        if live.size == 0:
            break
        a_k = new
    else:
        raise ProjectionDiverged("hyperbolic projection failed to converge")
    if np.any(a <= 0.0):        # a foot below the smallest double
        raise ProjectionDiverged("hyperbolic projection lost its foot to rounding")
    return np.stack([a - 2.0, x / a - 2.0], axis=1)


def _hyperbolic_inside(x: float, Z: np.ndarray) -> np.ndarray:
    """Rows of Z in the hyperbolic body at x, as booleans of shape (k,)."""
    return ((Z[:, 0] + 2.0) * (Z[:, 1] + 2.0) >= x) & (Z[:, 0] >= -2.0) & (Z[:, 1] >= -2.0)


def make_hyperbolic_set() -> ConvexSetOracle:
    """Projection oracle for the hyperbolic body; x must lie in (0, 4)."""

    def project(x, Z):
        xv = float(np.asarray(x).reshape(-1)[0])
        if not 0.0 < xv < 4.0:
            raise InteriorViolated(f"hyperbolic set requires x in (0, 4), got {xv}")
        out = np.array(Z, dtype=float, copy=True)
        outside = np.flatnonzero(~_hyperbolic_inside(xv, Z))
        # A coordinate at a time: Z is usually a C array's transpose, slow to index by row.
        out[outside, 0], out[outside, 1] = _hyperbolic_project(
            xv, Z.T.take(outside, axis=1).T).T
        return out

    def sensitivity(x, P, n):
        # 1 / |grad_z g| at P, positive because growing x shrinks the body.
        return 1.0 / np.hypot(P[:, 1] + 2.0, P[:, 0] + 2.0)[:, None]

    return ConvexSetOracle(z_dim=2, project=project,
                           sensitivity=sensitivity, x_dim=1, name="hyperbolic_set")


def make_ball(center=None, z_dim: int = 2) -> ConvexSetOracle:
    """S(x) = closed ball of radius x around ``center`` (default origin)."""
    if center is None:
        center = np.zeros(z_dim)
    center = np.asarray(center, dtype=float).reshape(-1)
    m = center.shape[0]

    def project(x, Z):
        xv = float(np.asarray(x).reshape(-1)[0])
        if xv <= 0:
            raise InteriorViolated(f"ball radius must be positive, got {xv}")
        Z = np.asarray(Z, dtype=float)
        D = np.subtract(Z.T, center[:, None], order="C")   # (m, k) C array in any layout
        norms = np.linalg.norm(D, axis=0)
        D *= xv / np.maximum(norms, xv)                   # 1 inside, no 0 / 0 at the center
        D += center[:, None]
        return np.where(norms > xv, D, Z.T).T

    def sensitivity(x, P, n):
        return np.full((P.shape[0], 1), -1.0)      # growing the radius grows the body

    return ConvexSetOracle(z_dim=m, project=project,
                           sensitivity=sensitivity, x_dim=1, name="ball")


# ---------------------------------------------------------------------------
# energy dispatch fixture
# ---------------------------------------------------------------------------


def make_energy_system(params) -> InequalitySystem:
    """Two-constraint-per-period dispatch system over z = (wind speed, load).

    Decision x = (p_wind, p_gen), each of length T.  Per period t:

        wind:  p_wind[t] - c * z1[t]^3 <= 0   on the domain z1[t] >= 0
        load:  z2[t] - p_wind[t] - p_gen[t] <= 0

    Wind-speed positivity enters as a domain cap ``-z1[t] <= 0`` per period
    rather than an extra inequality, which keeps the ray geometry well behaved
    when p_wind[t] is at zero.  Both sublevel sets are halfspaces in z (wind:
    ``z1[t] >= cbrt(p_wind[t] / c)``, as ``c > 0``) with fixed normals, and
    are declared through ``halfspaces``, so every ray root is explicit.
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

    def levels(x):
        pw, pg = split(x)
        return np.r_[-np.cbrt(pw / c), pw + pg]

    return InequalitySystem(s=2 * T, x_dim=2 * T, z_dim=m, eval_g=eval_g,
                            grad_x_g=grad_x_g, grad_z_g=grad_z_g,
                            domain_caps=(-np.eye(m)[:T], np.zeros(T)), name="energy",
                            halfspaces=(W, levels))


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
