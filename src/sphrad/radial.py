"""Radial root finding along sphere directions.

For a direction ``v`` the ray ``r -> mean + r * L @ v`` leaves the feasible
region at the radial function value: the largest radius whose point still
satisfies every constraint (or stays within distance ``eps`` of the body, in
enlarged mode).  Declared halfspaces (``InequalitySystem.halfspaces``) and
affine domain caps have explicit roots.  Other constraints go through a
doubling scan that brackets the root, then a safeguarded Newton iteration
from the bracket's outer end that bisects where a step would leave the
bracket.  Quasi-convexity in ``z`` makes this reliable: the feasible radii
form an interval starting at zero (in oracle mode, distance minus ``eps`` is
convex in r, so Newton from the outer end does not overshoot).  A second
sign change is reported as :class:`BracketFailure` only when it straddles a
scan point r = 1, 2, 4, ...; two inside one doubling interval go unnoticed,
and a later root may then be returned.

Every solve runs over a batch of directions, one unit vector per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure
from .gaussian import GaussianModel, RadialLaw
from .oracles import (ConvexSetOracle, InequalitySystem, check_interior,
                      check_oracle_interior)

TIE_REL = 1e-7            # constraints within rho * (1 + TIE_REL) + TIE_ABS tie
TIE_ABS = 1e-9
SLOPE_FLOOR = 1e-12       # smallest ray slope trusted by a Newton step and the gradient
# Safety caps that never bind: the scan runs from r = 1 to the chi cutoff
# (at most 12.33 for m <= 48, so 5 doublings), and even bisection alone
# would reach the 1e-13 relative root width in under 50 steps.
MAX_BRACKET_DOUBLINGS = 64
MAX_ROOT_STEPS = 200


@dataclass
class HitBatch:
    """Ray-solve results for a direction set (internal).  ``act`` marks the
    rows whose radius attains ``rho`` within the tie band."""

    rho: np.ndarray            # (N,), +inf where no exit precedes the chi cutoff
    finite: np.ndarray         # (N,) bool
    act: np.ndarray            # (s + n_caps, N) bool, caps last; oracle mode: (1, N)


def _roots(ray, n_dirs, r_search):
    """Find the positive root of ``h`` along each ray within ``[0, r_search]``.

    ``ray(r, idx)`` evaluates the batched ray function at radii ``r`` for
    direction rows ``idx``; it must be negative at 0.  ``ray(r, idx, True)``
    returns ``(h, dh/dr)``.  Radii are ``inf`` where the window has no root.
    """
    all_idx = np.arange(n_dirs)
    lo = np.zeros(n_dirs)
    hi = np.full(n_dirs, np.inf)
    found = np.zeros(n_dirs, dtype=bool)
    prev_r = np.zeros(n_dirs)
    r_cur = np.minimum(1.0, r_search)
    # The grid is scanned to the window end even after a bracket is found, so
    # a second sign change that straddles a later grid point is detected.
    for _ in range(MAX_BRACKET_DOUBLINGS):
        h = ray(r_cur, all_idx)
        regression = found & (h <= 0) & (r_cur > hi)
        if regression.any():
            raise BracketFailure(
                "ray function changed sign more than once; the constraint is "
                "not quasi-convex along direction "
                f"{int(np.flatnonzero(regression)[0])}")
        newly = (~found) & (h > 0)
        hi = np.where(newly, r_cur, hi)
        lo = np.where(newly, prev_r, lo)
        lo = np.where(~found & (h <= 0), r_cur, lo)
        found |= newly
        if np.all(r_cur >= r_search):
            break
        prev_r = r_cur
        r_cur = np.minimum(2.0 * r_cur, r_search)
    del all_idx, prev_r, r_cur, h, regression, newly    # (N,) arrays, freed early

    idx = np.flatnonzero(found)
    lo, hi = lo[idx], hi[idx]
    r = hi.copy()                               # start at the outer end, h > 0
    newton = np.zeros(idx.size, dtype=bool)     # r came from a Newton step
    live = np.arange(idx.size)
    for _ in range(MAX_ROOT_STEPS):
        if live.size == 0:
            break
        h, dh = ray(r[live], idx[live], True)
        live = live[~_newton_step(live, h, dh, r, lo, hi, newton)]
    rho = np.full(n_dirs, np.inf)
    rho[idx] = r
    return rho


def _newton_step(rows, h, dh, r, lo, hi, newton):
    """Move ``rows`` one safeguarded Newton step from ``r[rows]``, where the
    ray function is ``h`` with slope ``dh``, in place; return the stopped rows.

    A row stops when its step or bracket is within ``1e-13 * max(1, hi)``,
    never on h == 0: at eps = 0, h vanishes on the whole feasible segment.
    """
    r_k = r[rows]
    out = h > 0
    lo_k = np.where(out, lo[rows], r_k)
    hi_k = np.where(out, r_k, hi[rows])
    tol = 1e-13 * np.maximum(1.0, hi_k)
    ok = dh > SLOPE_FLOOR
    step = np.divide(-h, dh, out=np.zeros_like(h), where=ok)
    cand = r_k + step
    mid = 0.5 * (lo_k + hi_k)
    conv = ok & (np.abs(step) <= tol)
    done = conv | (hi_k - lo_k <= tol)
    take = ok & (cand > lo_k) & (cand < hi_k)
    # A Newton iterate that lands inside is probed just beyond, not bisected
    # from: at eps = 0 it is usually within rounding of the root.
    probe = np.where(newton[rows] & ~out, np.minimum(lo_k + 0.5 * tol, mid), mid)
    r[rows] = np.where(done, np.where(conv, np.clip(cand, lo_k, hi_k), mid),
                       np.where(take, cand, probe))
    lo[rows], hi[rows], newton[rows] = lo_k, hi_k, take
    return done


def _halfspace_roots(LV, w, t, mean, limit):
    """Radii where the rays ``mean + r * LV[k]`` leave ``{z : w . z <= t}``.

    ``inf`` where a ray never leaves the halfspace or leaves it at or beyond
    ``limit``.
    """
    speed = LV @ w
    rho = np.full(LV.shape[0], np.inf)
    np.divide(t - w @ mean, speed, out=rho, where=speed > 0)
    return np.where(rho < limit, rho, np.inf)


def _classify(radii, r_max) -> HitBatch:
    """Hits from stacked per-row radii (rows, N): the smallest radius, finite
    below ``r_max``, and the rows that attain it within the tie band."""
    rho = radii.min(axis=0)
    finite = rho < r_max
    rho = np.where(finite, rho, np.inf)
    thresh = np.where(finite, rho * (1.0 + TIE_REL) + TIE_ABS, -np.inf)
    return HitBatch(rho=rho, finite=finite, act=radii <= thresh)


def _rays(x, dirs, model: GaussianModel):
    """Return the decision vector and the rows ``L v`` of unit directions."""
    x = np.asarray(x, dtype=float).reshape(-1)
    V = np.atleast_2d(np.asarray(dirs, dtype=float))
    off = np.abs(np.linalg.norm(V, axis=1) - 1.0) > 1e-9
    if off.any():
        raise ValueError(f"direction {int(np.flatnonzero(off)[0])} is not a unit vector")
    return x, V @ model.factor_L.T


def inequality_hits(system: InequalitySystem, x, dirs: np.ndarray,
                    model: GaussianModel) -> HitBatch:
    """Solve every ray of ``dirs`` (rows, unit vectors) against the system."""
    x, LV = _rays(x, dirs, model)
    check_interior(system, x, model.mean)
    n_dirs = LV.shape[0]
    mean = model.mean
    r_max = RadialLaw(model.dim).r_max

    n_caps = len(system.domain_caps)
    rho_cap = np.full((n_caps, n_dirs), np.inf)
    for k, cap in enumerate(system.domain_caps):
        rho_cap[k] = _halfspace_roots(LV, -cap.a, cap.b, mean, np.inf)
    r_dom = rho_cap.min(axis=0) if n_caps else np.full(n_dirs, np.inf)
    # Real roots are searched strictly inside the validity window, so a root
    # exactly on a cap is attributed to the cap (whose geometry is regular).
    r_search = np.minimum(r_max, r_dom * (1.0 - 1e-10))

    rho_real = np.empty((system.s, n_dirs))
    if system.halfspaces is not None:
        W, t = system.halfspaces(x)
        for i in range(system.s):
            rho_real[i] = _halfspace_roots(LV, W[i], t[i], mean, r_search)
    else:
        for i in range(system.s):
            def ray(r, idx, slope=False, _i=i):
                Z = mean + r[:, None] * LV[idx]
                h = np.asarray(system.eval_g(_i, x, Z), dtype=float)
                if not slope:
                    return h
                gz = np.asarray(system.grad_z_g(_i, x, Z), dtype=float)
                return h, np.einsum("km,km->k", gz, LV[idx])

            rho_real[i] = _roots(ray, n_dirs, r_search)

    return _classify(np.vstack([rho_real, rho_cap]), r_max)


def enlarged_hits(oracle: ConvexSetOracle, x, dirs: np.ndarray, eps: float,
                  model: GaussianModel) -> HitBatch:
    """Solve rays against the eps-enlargement of a projection oracle (eps >= 0)."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    x, LV = _rays(x, dirs, model)
    check_oracle_interior(oracle, x, model.mean)
    n_dirs = LV.shape[0]
    mean = model.mean
    r_max = RadialLaw(model.dim).r_max

    def ray(r, idx, slope=False):
        U = mean + r[:, None] * LV[idx]
        U -= oracle.project(x, U)
        dist = np.linalg.norm(U, axis=1)
        if not slope:
            return dist - eps
        return dist - eps, np.einsum("km,km->k", U, LV[idx]) / np.maximum(dist, 1e-300)

    return _classify(_roots(ray, n_dirs, np.full(n_dirs, r_max))[None, :], r_max)
