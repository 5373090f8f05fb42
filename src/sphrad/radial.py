"""Radial root finding along sphere directions.

For a direction ``v`` the ray ``r -> mean + r * L @ v`` leaves the feasible
region at the radial function value: the largest radius whose point still
satisfies every constraint (or stays within distance ``eps`` of the body, in
enlarged mode).  Where a system declares its sublevel sets as halfspaces
(``InequalitySystem.halfspaces``), and for affine domain caps, the root is
explicit and solved in closed form.  Other constraints go through a
doubling scan followed by bisection and a Newton polish, which
quasi-convexity in ``z`` makes reliable: the feasible radii form an interval
starting at zero.  A second sign change is reported as
:class:`BracketFailure` only when it straddles a scan point r = 1, 2, 4, ...;
two sign changes inside one doubling interval go unnoticed, and bisection
may then return the later root.

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
SLOPE_FLOOR = 1e-12       # smallest ray slope trusted by Newton and the gradient
# Safety caps that never bind: the scan runs from r = 1 to the chi cutoff
# (at most 12.33 for m <= 48, so 5 doublings) and bisection reaches its
# 1e-13 relative width in under 50 halvings.
MAX_BRACKET_DOUBLINGS = 64
MAX_BISECTIONS = 200


@dataclass
class HitBatch:
    """Vectorized ray-solve results for a direction set (internal)."""

    rho: np.ndarray            # (N,), +inf on infinite directions
    finite: np.ndarray         # (N,) bool
    boundary: np.ndarray       # (N, m); rows valid only where finite
    lv: np.ndarray             # (N, m), rows L @ v
    act: np.ndarray            # (s + n_caps, N) bool; oracle mode: (1, N)
    n_active: np.ndarray       # (N,) int
    mode: str                  # "inequality" | "oracle"
    eps: float = 0.0


def _scan_and_bisect(eval_h, n_dirs, r_search, polish_slope=None):
    """Find the positive root of ``h`` along each ray within ``[0, r_search]``.

    ``eval_h(r, idx)`` evaluates the batched ray function at radii ``r`` for
    direction rows ``idx``; it must be negative at 0.  Returns radii with
    ``inf`` where no root exists in the window.
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
        h = eval_h(r_cur, all_idx)
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

    rho = np.full(n_dirs, np.inf)
    idx = np.flatnonzero(found)
    if idx.size == 0:
        return rho
    lo_f, hi_f = lo[idx], hi[idx]
    for _ in range(MAX_BISECTIONS):
        if np.all(hi_f - lo_f <= 1e-13 * np.maximum(1.0, hi_f)):
            break
        mid = 0.5 * (lo_f + hi_f)
        pos = eval_h(mid, idx) > 0
        hi_f = np.where(pos, mid, hi_f)
        lo_f = np.where(pos, lo_f, mid)
    r = 0.5 * (lo_f + hi_f)
    if polish_slope is not None:
        hr = eval_h(r, idx)
        for _ in range(3):
            slope = polish_slope(r, idx)
            ok = np.abs(slope) > SLOPE_FLOOR
            cand = r - np.where(ok, hr / np.where(ok, slope, 1.0), 0.0)
            cand = np.clip(cand, 0.0, r_search[idx])
            hc = eval_h(cand, idx)
            better = ok & (np.abs(hc) < np.abs(hr))
            r = np.where(better, cand, r)
            hr = np.where(better, hc, hr)
    rho[idx] = r
    return rho


def _halfspace_roots(LV, w, t, mean, limit):
    """Radii where the rays ``mean + r * LV[k]`` leave ``{z : w . z <= t}``.

    ``inf`` where a ray never leaves the halfspace or leaves it at or beyond
    ``limit``.
    """
    speed = LV @ w
    rho = np.full(LV.shape[0], np.inf)
    np.divide(t - w @ mean, speed, out=rho, where=speed > 0)
    return np.where(rho < limit, rho, np.inf)


def _rays(x, dirs, model: GaussianModel):
    """Return the decision vector and the rows ``L v`` of unit directions."""
    x = np.asarray(x, dtype=float).reshape(-1)
    V = np.atleast_2d(np.asarray(dirs, dtype=float))
    off = np.abs(np.linalg.norm(V, axis=1) - 1.0) > 1e-9
    if off.any():
        raise ValueError(f"direction {int(np.flatnonzero(off)[0])} is not a unit vector")
    return x, V @ model.factor_L.T


def _boundary(rho, finite, LV, model: GaussianModel):
    boundary = np.full(LV.shape, np.nan)
    boundary[finite] = model.mean + rho[finite, None] * LV[finite]
    return boundary


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
            def eval_h(r, idx, _i=i):
                Z = mean + r[:, None] * LV[idx]
                return np.asarray(system.eval_g(_i, x, Z), dtype=float)

            def slope(r, idx, _i=i):
                Z = mean + r[:, None] * LV[idx]
                gz = np.asarray(system.grad_z_g(_i, x, Z), dtype=float)
                return np.einsum("km,km->k", gz, LV[idx])

            rho_real[i] = _scan_and_bisect(eval_h, n_dirs, r_search, polish_slope=slope)

    stacked = np.vstack([rho_real, rho_cap]) if n_caps else rho_real
    rho = stacked.min(axis=0)
    finite = rho < r_max
    rho = np.where(finite, rho, np.inf)
    thresh = np.where(finite, rho * (1.0 + TIE_REL) + TIE_ABS, -np.inf)
    act = stacked <= thresh[None, :]
    return HitBatch(rho=rho, finite=finite, boundary=_boundary(rho, finite, LV, model),
                    lv=LV, act=act, n_active=act.sum(axis=0), mode="inequality")


def enlarged_hits(oracle: ConvexSetOracle, x, dirs: np.ndarray, eps: float,
                  model: GaussianModel) -> HitBatch:
    """Solve rays against the eps-enlargement of a projection oracle.

    ``eps = 0`` recovers the plain body; the root is then located by
    membership bisection alone.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    x, LV = _rays(x, dirs, model)
    check_oracle_interior(oracle, x, model.mean)
    n_dirs = LV.shape[0]
    mean = model.mean
    r_max = RadialLaw(model.dim).r_max

    def eval_h(r, idx):
        Z = mean + r[:, None] * LV[idx]
        P = oracle.project(x, Z)
        return np.linalg.norm(Z - P, axis=1) - eps

    def slope(r, idx):
        Z = mean + r[:, None] * LV[idx]
        P = oracle.project(x, Z)
        U = Z - P
        norms = np.linalg.norm(U, axis=1)
        safe = np.maximum(norms, 1e-300)
        return np.einsum("km,km->k", U / safe[:, None], LV[idx])

    rho = _scan_and_bisect(eval_h, n_dirs, np.full(n_dirs, r_max),
                           polish_slope=slope if eps > 0 else None)
    finite = rho < r_max
    rho = np.where(finite, rho, np.inf)
    act = finite[None, :].copy()
    return HitBatch(rho=rho, finite=finite, boundary=_boundary(rho, finite, LV, model),
                    lv=LV, act=act, n_active=act.sum(axis=0), mode="oracle", eps=eps)
