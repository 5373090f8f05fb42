"""Radial root finding along sphere directions.

For a direction ``v`` the ray ``r -> mean + r * L @ v`` leaves the feasible
region at the radial function value: the largest radius whose point still
satisfies every constraint (or stays within distance ``eps`` of the body, in
enlarged mode).  Quasi-convexity in ``z`` makes the feasible radii an
interval starting at zero, so a doubling scan followed by bisection and an
optional Newton polish is reliable; a second sign change during the scan is
reported as :class:`BracketFailure` since it contradicts the model
assumptions.

All searching is implemented over batches of directions; the public
per-direction operations wrap batches of size one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BracketFailure
from .gaussian import GaussianModel, RadialLaw
from .oracles import (ConvexSetOracle, InequalitySystem, check_interior,
                      check_oracle_interior)


@dataclass(frozen=True)
class RootOptions:
    """Tolerances and iteration caps for the ray solves."""

    g_tol: float = 1e-10
    d_tol: float = 1e-10
    tie_rel: float = 1e-7
    tie_abs: float = 1e-9
    r_max: Optional[float] = None          # None: use the chi-law cutoff
    max_bracket_doublings: int = 64
    max_bisections: int = 200
    newton_polish: bool = True
    slope_floor: float = 1e-12


@dataclass(frozen=True)
class RadialHit:
    """Outcome of one ray solve.

    ``active`` lists constraint indices within the tie band of the minimal
    radius; domain caps use indices ``s .. s+len(caps)-1``.  ``normal_data``
    holds, per active index, the pair ``(grad_x, grad_z)`` at the boundary
    point in inequality mode, or the unit projection residual in oracle mode.
    """

    rho: float
    active: tuple
    finite: bool
    boundary_point: Optional[np.ndarray]
    normal_data: tuple


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


def _resolve_r_max(model: GaussianModel, opts: RootOptions) -> float:
    if opts.r_max is not None:
        return float(opts.r_max)
    return RadialLaw(model.dim).r_max


def _scan_and_bisect(eval_h, n_dirs, r_search, opts, polish_slope=None):
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
    # a second sign change (a quasi-convexity violation) is detected.
    for _ in range(opts.max_bracket_doublings):
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
    for _ in range(opts.max_bisections):
        if np.all(hi_f - lo_f <= 1e-13 * np.maximum(1.0, hi_f)):
            break
        mid = 0.5 * (lo_f + hi_f)
        pos = eval_h(mid, idx) > 0
        hi_f = np.where(pos, mid, hi_f)
        lo_f = np.where(pos, lo_f, mid)
    r = 0.5 * (lo_f + hi_f)
    if opts.newton_polish and polish_slope is not None:
        hr = eval_h(r, idx)
        for _ in range(3):
            slope = polish_slope(r, idx)
            ok = np.abs(slope) > opts.slope_floor
            cand = r - np.where(ok, hr / np.where(ok, slope, 1.0), 0.0)
            cand = np.clip(cand, 0.0, r_search[idx])
            hc = eval_h(cand, idx)
            better = ok & (np.abs(hc) < np.abs(hr))
            r = np.where(better, cand, r)
            hr = np.where(better, hc, hr)
    rho[idx] = r
    return rho


def inequality_hits(system: InequalitySystem, x, dirs: np.ndarray,
                    model: GaussianModel, opts: RootOptions = None) -> HitBatch:
    """Solve every ray of ``dirs`` (rows, unit vectors) against the system."""
    opts = opts or RootOptions()
    x = np.asarray(x, dtype=float).reshape(-1)
    check_interior(system, x, model.mean)
    V = np.atleast_2d(np.asarray(dirs, dtype=float))
    n_dirs = V.shape[0]
    LV = V @ model.factor_L.T
    mean = model.mean
    r_max = _resolve_r_max(model, opts)

    n_caps = len(system.domain_caps)
    rho_cap = np.full((n_caps, n_dirs), np.inf)
    for k, cap in enumerate(system.domain_caps):
        denom = LV @ cap.a
        val0 = float(cap.a @ mean + cap.b)
        exits = denom < 0
        rho_cap[k, exits] = -val0 / denom[exits]
    r_dom = rho_cap.min(axis=0) if n_caps else np.full(n_dirs, np.inf)
    # Real roots are searched strictly inside the validity window, so a root
    # exactly on a cap is attributed to the cap (whose geometry is regular).
    r_search = np.minimum(r_max, r_dom * (1.0 - 1e-10))

    rho_real = np.empty((system.s, n_dirs))
    for i in range(system.s):
        def eval_h(r, idx, _i=i):
            Z = mean + r[:, None] * LV[idx]
            return np.asarray(system.eval_g(_i, x, Z), dtype=float)

        def slope(r, idx, _i=i):
            Z = mean + r[:, None] * LV[idx]
            gz = np.asarray(system.grad_z_g(_i, x, Z), dtype=float)
            return np.einsum("km,km->k", gz, LV[idx])

        rho_real[i] = _scan_and_bisect(eval_h, n_dirs, r_search, opts,
                                       polish_slope=slope)

    stacked = np.vstack([rho_real, rho_cap]) if n_caps else rho_real
    rho = stacked.min(axis=0)
    finite = rho < r_max
    rho = np.where(finite, rho, np.inf)
    thresh = np.where(finite, rho * (1.0 + opts.tie_rel) + opts.tie_abs, -np.inf)
    act = stacked <= thresh[None, :]
    n_active = act.sum(axis=0)
    boundary = np.full((n_dirs, model.dim), np.nan)
    if finite.any():
        boundary[finite] = mean + rho[finite, None] * LV[finite]
    return HitBatch(rho=rho, finite=finite, boundary=boundary, lv=LV, act=act,
                    n_active=n_active, mode="inequality")


def enlarged_hits(oracle: ConvexSetOracle, x, dirs: np.ndarray, eps: float,
                  model: GaussianModel, opts: RootOptions = None) -> HitBatch:
    """Solve rays against the eps-enlargement of a projection oracle.

    ``eps = 0`` recovers the plain body; the root is then located by
    membership bisection alone.
    """
    opts = opts or RootOptions()
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    x = np.asarray(x, dtype=float).reshape(-1)
    check_oracle_interior(oracle, x, model.mean)
    V = np.atleast_2d(np.asarray(dirs, dtype=float))
    n_dirs = V.shape[0]
    LV = V @ model.factor_L.T
    mean = model.mean
    r_max = _resolve_r_max(model, opts)
    r_search = np.full(n_dirs, r_max)

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

    rho = _scan_and_bisect(eval_h, n_dirs, r_search, opts,
                           polish_slope=slope if eps > 0 else None)
    finite = rho < r_max
    rho = np.where(finite, rho, np.inf)
    act = finite[None, :].copy()
    boundary = np.full((n_dirs, model.dim), np.nan)
    if finite.any():
        boundary[finite] = mean + rho[finite, None] * LV[finite]
    return HitBatch(rho=rho, finite=finite, boundary=boundary, lv=LV, act=act,
                    n_active=act.sum(axis=0), mode="oracle", eps=eps)


def _require_unit(v):
    v = np.asarray(v, dtype=float).reshape(-1)
    if abs(np.linalg.norm(v) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    return v


def _hit_from_batch(batch: HitBatch, row: int, system: InequalitySystem = None,
                    oracle: ConvexSetOracle = None, x=None) -> RadialHit:
    finite = bool(batch.finite[row])
    rho = float(batch.rho[row])
    if not finite:
        return RadialHit(rho=np.inf, active=(), finite=False,
                         boundary_point=None, normal_data=())
    z = batch.boundary[row]
    active = tuple(int(i) for i in np.flatnonzero(batch.act[:, row]))
    normal = []
    if batch.mode == "inequality":
        x = np.asarray(x, dtype=float).reshape(-1)
        for i in active:
            if i < system.s:
                gx = np.asarray(system.grad_x_g(i, x, z[None, :]))[0]
                gz = np.asarray(system.grad_z_g(i, x, z[None, :]))[0]
            else:
                cap = system.domain_caps[i - system.s]
                gx = np.zeros(system.x_dim)
                gz = -cap.a
            normal.append((gx, gz))
    else:
        # Unit residual; probe slightly outside when the hit is on the
        # plain boundary (eps = 0) where the residual vanishes.
        probe_rho = rho if batch.eps > 0 else rho * (1 + 1e-7) + 1e-9
        zp = z if batch.eps > 0 else z + (probe_rho - rho) * batch.lv[row]
        P = oracle.project(np.asarray(x, dtype=float).reshape(-1), zp[None, :])[0]
        u = zp - P
        nu = np.linalg.norm(u)
        normal.append(u / nu if nu > 0 else u)
    return RadialHit(rho=rho, active=active, finite=True,
                     boundary_point=z.copy(), normal_data=tuple(normal))


def radial_root_inequality(system: InequalitySystem, x, v, model: GaussianModel,
                           opts: RootOptions = None) -> RadialHit:
    """Radial function of the inequality system along one unit direction."""
    v = _require_unit(v)
    batch = inequality_hits(system, x, v[None, :], model, opts)
    return _hit_from_batch(batch, 0, system=system, x=x)


def radial_root_enlarged(oracle: ConvexSetOracle, x, v, eps: float,
                         model: GaussianModel, opts: RootOptions = None) -> RadialHit:
    """Radial function of the eps-enlarged body along one unit direction."""
    v = _require_unit(v)
    batch = enlarged_hits(oracle, x, v[None, :], eps, model, opts)
    return _hit_from_batch(batch, 0, oracle=oracle, x=x)
