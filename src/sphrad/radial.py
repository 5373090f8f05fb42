"""Radial root finding along sphere directions.

For a direction ``v`` the ray ``r -> mean + r * L @ v`` leaves the feasible
region at the radial function value: the largest radius whose point still
satisfies every constraint (or stays within distance ``eps`` of the body, in
enlarged mode).  Declared halfspaces (``InequalitySystem.halfspaces``: fixed
rows ``W``, levels ``t(x)``) and domain caps (``domain_caps``: fixed rows
``C``, levels ``c``), each row ``w . z <= t``, form a gauge: one product of
their stacked rows with the directions, scaled by ``1 / gap``, ``gap = t -
w . mean``, after it, gives their inverse radii; the largest is the exit's.
A declared row counts only above ``1 / r_max`` and the caps' (pulled in by
1e-10, so a root on a cap stays the cap's).  The solve checks once per batch
that the mean is interior: every ``gap`` positive, ``g_i(x, mean) < 0`` on
undeclared rows, or in oracle mode the mean's projection returning it
unchanged and, at eps = 0, no root at or below ``ROOT_TOL``.  Other constraints
go through a doubling scan that brackets the root, then a safeguarded Newton
iteration from the bracket's outer end that bisects where a step would leave
the bracket.  Both modes give the ray as ``h`` plus its slope on request,
from the same evaluation (a ``grad_z_g`` call, or the residual of the
projection just made), so Newton starts from the scan's values at the outer
end instead of evaluating it again.
Quasi-convexity in ``z`` makes this reliable: the feasible radii form an
interval starting at zero (in oracle mode, distance minus ``eps`` is
convex in r, so Newton from the outer end does not overshoot).  A second
sign change is reported as :class:`BracketFailure` only when it straddles a
scan point r = 1, 2, 4, ...; two inside one doubling interval go unnoticed,
and a later root may then be returned.

Every solve runs over a batch of directions, one unit vector per row, in
blocks of at most ``BLOCK_ROWS``: a large batch holds its O(N) results plus
one block's temporaries.  A NaN ray value or level ``t(x)``, or a ray still
moving after ``MAX_ROOT_STEPS`` Newton steps, is a NumericalError.
A block keeps its directions as ``L V^T``, (m, N), so a ray's points
``mean + r L v`` reach the callbacks as the (k, m) transpose of a C array.
Scan points take every row as a slice, so their columns are views; other
row sets gather columns with ``take`` (C-ordered, several times faster than
2-D fancy indexing).  Newton iterates compact arrays of the moving rows;
each writes its radius once, when it stops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, InteriorViolated, NumericalError
from .gaussian import GaussianModel, chi_cutoff
from .oracles import ConvexSetOracle, InequalitySystem

TIE_REL = 1e-7            # constraints within rho * (1 + TIE_REL) + TIE_ABS tie
TIE_ABS = 1e-9
SLOPE_FLOOR = 1e-12       # smallest ray slope trusted by a Newton step and the gradient
ROOT_TOL = 1e-13          # a root is within ROOT_TOL * max(1, r) of its radius
# Safety caps that never bind: the scan runs from r = 1 to the chi cutoff
# (at most 12.33 for m <= 48, so 5 doublings), and even bisection alone
# would reach the 1e-13 relative root width in under 50 steps.
MAX_BRACKET_DOUBLINGS = 64
MAX_ROOT_STEPS = 200
BLOCK_ROWS = 16384        # directions per block; bounds a batch's temporaries


@dataclass
class HitBatch:
    """Ray-solve results for a direction set (internal).  ``act`` marks the
    rows whose radius attains ``rho`` within the tie band; it is all False
    where ``rho`` is infinite.  ``gap`` is the declared rows' ``t(x) - W mean``
    that scaled their inverse radii, for the gradient to read."""

    rho: np.ndarray            # (N,), +inf where no exit precedes the chi cutoff
    act: np.ndarray            # (s + n_caps, N) bool, caps last; oracle mode: (1, N)
    gap: np.ndarray = None     # (s,) if declared, (0,) if scanned; oracle mode: None


def _roots(ray, r_search, what, first):
    """Find the positive root of ``h`` along each ray within ``[0, r_search]``.

    ``ray(r, idx)`` evaluates the batched ray function at radii ``r`` for
    direction rows ``idx`` (``slice(None)`` on the scan: every row); it must
    be negative at 0.  It returns ``(h, slope)``: ``slope(rows)`` is dh/dr at
    those rows of the same evaluation, asked for on the scan only where a
    bracket closes, and Newton starts from there.  Radii are ``inf`` where
    the window has no root.  Errors name the constraint ``what`` and the
    direction ``first + idx``.
    """
    n_dirs = r_search.shape[0]

    def value(r, idx):
        h, slope = ray(r, idx)
        if np.isnan(h).any():
            k = first + np.arange(n_dirs)[idx][np.isnan(h).argmax()]
            raise NumericalError(f"{what}: NaN ray value at direction {k}")
        return h, slope

    every = slice(None)
    lo = np.zeros(n_dirs)
    hi = np.full(n_dirs, np.inf)
    h_hi, dh_hi = np.empty(n_dirs), np.empty(n_dirs)     # (h, dh/dr) at hi
    found = np.zeros(n_dirs, dtype=bool)
    prev_r = np.zeros(n_dirs)
    r_cur = np.minimum(1.0, r_search)
    h = np.empty(n_dirs)
    scan = every                        # the rows whose scan point moved
    # The grid is scanned to the window end even after a bracket is found, so
    # a second sign change that straddles a later grid point is detected.  A
    # row stays at its window end once there; its h is kept, not evaluated
    # again, and the updates below leave it unchanged.
    for _ in range(MAX_BRACKET_DOUBLINGS):
        h[scan], slope = value(r_cur[scan], scan)
        below = h <= 0
        regression = found & below & (r_cur > hi)
        if regression.any():
            raise BracketFailure(
                f"{what}: ray function changed sign more than once; the constraint "
                f"is not quasi-convex along direction {first + int(np.argmax(regression))}")
        newly = ~found & ~below
        hi = np.where(newly, r_cur, hi)
        lo = np.where(found | newly, lo, r_cur)     # a newly closed lo is the last r inside
        closed = np.flatnonzero(newly)
        if closed.size:                 # a callback never sees a 0-row array
            h_hi[closed], dh_hi[closed] = h[closed], slope(
                closed if scan is every else np.searchsorted(scan, closed))
        del slope                       # frees this evaluation's points before the next
        found |= newly
        prev_r = r_cur
        r_cur = np.minimum(2.0 * r_cur, r_search)
        moved = r_cur > prev_r
        if not moved.any():
            break
        scan = every if moved.all() else np.flatnonzero(moved)
    del prev_r, r_cur, h, below, regression, newly, moved   # (N,) arrays, freed early

    idx = np.flatnonzero(found)     # Newton from hi, with the scan's (h, dh/dr) there
    r, lo, h, dh = hi.take(idx), lo.take(idx), h_hi.take(idx), dh_hi.take(idx)
    hi, newton = r, np.zeros(idx.size, dtype=bool)     # newton: r came from a Newton step
    rho = np.full(n_dirs, np.inf)
    for _ in range(MAX_ROOT_STEPS):
        r, lo, hi, newton, done = _newton_step(h, dh, r, lo, hi, newton)
        if done.any():
            stop, keep = np.flatnonzero(done), np.flatnonzero(~done)
            rho[idx.take(stop)] = r.take(stop)
            idx, r, lo, hi, newton = (a.take(keep) for a in (idx, r, lo, hi, newton))
        if idx.size == 0:
            return rho
        h, slope = value(r, idx)
        dh, slope = slope(every), None  # frees this evaluation's points before the next
    raise NumericalError(f"{what}: ray root not converged in {MAX_ROOT_STEPS} steps "
                         f"at direction {first + int(idx[0])}")


def _newton_step(h, dh, r, lo, hi, newton):
    """One safeguarded Newton step of each row from ``r`` in the bracket
    ``[lo, hi]``, where the ray function is ``h`` with slope ``dh`` and
    ``newton`` marks an ``r`` that came from a Newton step.  Return the new
    ``(r, lo, hi, newton)`` and the stopped rows.

    A row stops when its step or bracket is within ``ROOT_TOL * max(1, hi)``,
    never on h == 0: at eps = 0, h vanishes on the whole feasible segment.
    """
    out = h > 0
    lo = np.where(out, lo, r)
    hi = np.where(out, r, hi)
    tol = ROOT_TOL * np.maximum(1.0, hi)
    ok = dh > SLOPE_FLOOR
    with np.errstate(all="ignore"):     # read only where ok
        step = h / dh                   # the Newton step is -step
    cand = r - step
    mid = 0.5 * (lo + hi)
    conv = ok & (np.abs(step) <= tol)
    done = conv | (hi - lo <= tol)
    inside = ok & (cand > lo) & (cand < hi)
    # A Newton iterate is probed just beyond, not bisected from, where it
    # lands inside, or outside with a slope too flat to trust: at eps = 0 it
    # is usually within rounding of the root, where the slope is noise.
    half, probe, pick = 0.5 * tol, mid, newton & ~(out & ok)
    if pick.any():      # none on a first step, where no r came from Newton
        near = np.where(out, np.maximum(hi - half, mid), np.minimum(lo + half, mid))
        probe = np.where(pick, near, mid)
    r = np.where(done, np.where(conv, np.minimum(np.maximum(cand, lo), hi), mid),
                 np.where(inside, cand, probe))
    return r, lo, hi, inside, done


def _classify(inv, r_max) -> HitBatch:
    """Hits from stacked inverse radii (rows, N), at most 0 where a row has no
    exit: ``rho = 1 / max``, finite where the max exceeds ``1 / r_max``, and
    the rows at or above ``1 / (rho (1 + TIE_REL) + TIE_ABS)`` tie there."""
    top = inv.max(axis=0, initial=1.0 / r_max)     # > 0, so 1 / top is finite
    finite = top > 1.0 / r_max
    rho = np.where(finite, 1.0 / top, np.inf)
    thresh = np.where(finite, 1.0 / (rho * (1.0 + TIE_REL) + TIE_ABS), np.inf)
    return HitBatch(rho=rho, act=inv >= thresh)


def _blocks(n_dirs):
    """Slices of at most ``BLOCK_ROWS`` rows; an empty batch is one empty block."""
    return [slice(start, start + BLOCK_ROWS) for start in range(0, max(n_dirs, 1), BLOCK_ROWS)]


def _solve_blocks(solve, n_dirs, n_rows, r_max) -> HitBatch:
    """Hits of ``n_dirs`` directions; ``solve(sl)`` gives block ``sl``'s inverse radii."""
    hits = HitBatch(np.empty(n_dirs), np.empty((n_rows, n_dirs), bool))
    for sl in _blocks(n_dirs):
        part = _classify(solve(sl), r_max)
        hits.rho[sl], hits.act[:, sl] = part.rho, part.act
    return hits


def _columns(A, idx):
    """Columns ``idx`` of ``A``: a view for a slice, else a C-ordered ``take``."""
    return A[:, idx] if isinstance(idx, slice) else A.take(idx, axis=1)


def _unit_rows(x, dirs):
    """Return the decision vector and the unit directions as rows."""
    x = np.asarray(x, dtype=float).reshape(-1)
    V = np.atleast_2d(np.asarray(dirs, dtype=float))
    off = ~(np.abs(np.sqrt(np.einsum("km,km->k", V, V)) - 1.0) <= 1e-9)   # NaN is off
    if off.any():
        raise ValueError(f"direction {int(np.flatnonzero(off)[0])} is not a unit vector")
    return x, V


def inequality_hits(system: InequalitySystem, x, dirs: np.ndarray,
                    model: GaussianModel) -> HitBatch:
    """Solve every ray of ``dirs`` (rows, unit vectors) against the system."""
    x, V = _unit_rows(x, dirs)
    mean, L = model.mean, model.factor_L
    r_max = chi_cutoff(model.dim)

    s, declared = system.s, system.halfspaces is not None
    W, level = system.halfspaces or (np.empty((0, model.dim)), lambda x_: np.empty(0))
    t, n_real = level(x), W.shape[0]    # s declared rows, or none
    if np.shape(t) != (n_real,):        # W and the caps were checked when the system was built
        raise ValueError(f"{system.name}: t(x) has shape {np.shape(t)}, not {(s,)}")
    if np.isnan(t).any():
        raise NumericalError(f"{system.name}: t(x) returned a NaN")
    W, t = np.vstack([W, system.domain_caps[0]]), np.r_[t, system.domain_caps[1]]  # caps last
    WL, gap = W @ L, t - W @ mean
    if not (gap > 0).all():             # the affine rows' interior check
        i = int(np.argmin(gap > 0))
        row, k = ("declared halfspace", i) if i < n_real else ("domain cap", i - n_real)
        raise InteriorViolated(f"{system.name}: mean outside {row} {k}", index=k)
    for i in range(0 if declared else s):
        gi = float(np.asarray(system.eval_g(i, x, mean[None, :])).reshape(-1)[0])
        if not gi < 0:
            raise InteriorViolated(
                f"{system.name}: g_{i}(x, mean) = {gi:.6g} is not negative", index=i)

    def solve(sl):
        G = WL @ V[sl].T
        G *= (1.0 / gap)[:, None]
        cut = np.maximum(1.0 / r_max, G[n_real:].max(axis=0, initial=0.0) / (1.0 - 1e-10))
        if declared:
            G[:n_real] *= G[:n_real] > cut      # 0 at or below the cut
            return G
        r_search = np.where(cut > 1.0 / r_max, 1.0 / cut, r_max)
        LVT = L @ V[sl].T
        rho_real = np.empty((s, r_search.shape[0]))
        for i in range(s):
            def ray(r, idx, _i=i):
                LVT_k = _columns(LVT, idx)
                ZT = mean[:, None] + r * LVT_k
                slope = lambda rows: np.einsum("km,mk->k", np.asarray(
                    system.grad_z_g(_i, x, _columns(ZT, rows).T), dtype=float),
                    _columns(LVT_k, rows))
                return np.asarray(system.eval_g(_i, x, ZT.T), dtype=float), slope

            rho_real[i] = _roots(ray, r_search, f"{system.name}: g_{i}", sl.start)
        return np.vstack([1.0 / rho_real, G])

    hits = _solve_blocks(solve, V.shape[0], s + len(system.domain_caps[1]), r_max)
    hits.gap = gap[:n_real]
    return hits


def enlarged_hits(oracle: ConvexSetOracle, x, dirs: np.ndarray, eps: float,
                  model: GaussianModel) -> HitBatch:
    """Solve rays against the eps-enlargement of a projection oracle (eps >= 0)."""
    if not (np.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and nonnegative, got {eps!r}")
    x, V = _unit_rows(x, dirs)
    if not np.array_equal(oracle.project(x, model.mean[None, :]), model.mean[None, :]):
        raise InteriorViolated(f"{oracle.name}: mean is not contained in S(x)")
    r_max = chi_cutoff(model.dim)

    def solve(sl):
        LVT = model.factor_L @ V[sl].T
        def ray(r, idx):             # the slope reads this projection's residual
            LVT_k = _columns(LVT, idx)
            UT = model.mean[:, None] + r * LVT_k
            UT -= oracle.project(x, UT.T).T
            dist = np.linalg.norm(UT, axis=0)
            return dist - eps, lambda rows: (
                np.einsum("mk,mk->k", _columns(UT, rows), _columns(LVT_k, rows))
                / np.maximum(dist[rows], 1e-300))

        rho = _roots(ray, np.full(LVT.shape[1], r_max), oracle.name, sl.start)
        if eps == 0 and (rho <= ROOT_TOL).any():    # project(mean) == mean on the boundary too
            k = int(np.argmax(rho <= ROOT_TOL))
            raise InteriorViolated(f"{oracle.name}: mean is on the boundary of S(x): ray root "
                                   f"{rho[k]:.1e} at direction {sl.start + k}")
        return 1.0 / rho[None, :]

    return _solve_blocks(solve, V.shape[0], 1, r_max)
