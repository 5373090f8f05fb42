"""Probability values and gradients from one ray solve per decision.

The probability of the feasible event is the direction-average of the chi
cdf at the radial function; infinite directions contribute exactly one.
The gradient reads the same hits: per finite direction it weighs a
decision-space normal of each active constraint by the chi density at the
hit over the ray slope; on a declared row ``w . z <= t(x)``, ``w`` constant,
that ratio is ``rho / gap * dt/dx``.  One fixed direction set (common random
numbers) makes value and gradient smooth deterministic functions of the
decision, which the finite-difference identities and the outer solver rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import MissingSensitivity, TransversalityBreakdown
from .gaussian import DirectionSet, GaussianModel, SphereMethod, chi_cdf, chi_pdf
from .oracles import ConvexSetOracle, InequalitySystem
from .radial import SLOPE_FLOOR, HitBatch, _blocks, enlarged_hits, inequality_hits

NORMAL_PUSH = 1e-7      # relative push along the ray to read eps = 0 oracle normals


@dataclass(frozen=True)
class GradEstimate:
    """Estimated gradient (or subdifferential element when ties occur).

    ``tie_fraction`` is the fraction of directions whose active set has more
    than one element; with no ties the estimate is the gradient of the
    common-random-numbers value estimator.

    The growth check ``max_ratio`` is the largest |grad_x g| / |grad_z g|
    over the finite boundary hits (|sensitivity| for a set oracle, whose
    normals are unit vectors).  With the chi density it bounds the
    per-direction weight, so a finite ratio is evidence the gradient
    estimator is well posed near ``x``.
    """

    gradient: np.ndarray
    tie_fraction: float
    max_ratio: float


@dataclass(frozen=True)
class ProbEstimate:
    """Estimated probability and its error bar.

    ``std_error`` is the Monte Carlo standard error (of the antithetic pair
    means for an even direction count) and is ``None`` in QMC mode, where
    no error bar is computed.
    """

    value: float
    std_error: Optional[float]
    n_infinite: int


@dataclass(frozen=True)
class Evaluation(ProbEstimate):
    """Probability estimate at one decision, with the ray solve it reads.

    ``e`` holds the per-direction contributions (the chi cdf at the radial
    function).  ``hits`` is the ray solve; :meth:`gradient` reads it, so
    value and gradient at one decision cost one solve.  ``eps`` is the
    enlargement radius, 0 for an inequality system.  Both are arrays
    over the direction set; keep a :class:`ProbEstimate` instead where only
    the estimate outlives the call.
    """

    e: np.ndarray
    hits: HitBatch
    target: object
    x: np.ndarray
    model: GaussianModel
    dirs: DirectionSet
    eps: float

    def gradient(self, tie_policy: str = "average") -> GradEstimate:
        """Estimate the gradient from the hits of this evaluation.

        Per finite direction the weight is
        ``-pdf(rho) * sum_{i active} lambda_i * n_i / <z_i, Lv>``, with
        ``(n_i, z_i)`` the decision and z normals of constraint ``i`` at the
        boundary point ``mean + rho L v``: ``grad_x g`` and ``grad_z g`` for
        an inequality system; for a set oracle ``sensitivity(x, P, n)`` and
        the unit outward normal ``n``, the direction of the residual of one
        projection ``P`` of the hit.  An eps = 0 root may lie just inside the
        body, where the residual is 0, so there the hit is first pushed out
        to ``rho * (1 + NORMAL_PUSH)``.  Each of the ray solve's blocks of
        directions lists its active (row, direction) pairs once, by row, with
        ``mass = pdf(rho) / n * lambda``; a scanned row or a set oracle reads
        its normals on its own pairs.  A declared row ``w . z <= t(x)`` sums
        ``mass * rho / gap``, with the ray solve's ``gap = t - w . mean``
        (``t(x)`` is not called again), and reads ``dt/dx`` once, as ``-grad_x
        g / s`` with ``grad_z g = s w`` at the mean's foot on it, exact as
        ``w`` is constant.  Infinite directions weigh zero.  Ties are split
        uniformly (``average``) or resolved to the smallest active index
        (``min_index``); with ties present the result is one subdifferential
        element, not the gradient.
        """
        if tie_policy not in ("average", "min_index"):
            raise ValueError(f"unknown tie policy {tie_policy!r}")
        hits, x, target, model = self.hits, self.x, self.target, self.model
        oracle = isinstance(target, ConvexSetOracle)
        if oracle and target.sensitivity is None:
            raise MissingSensitivity(f"{target.name}: gradients need a sensitivity callback")
        # Domain caps are x-independent: they contribute nothing to the gradient
        # but still take their share of the tie weight.
        n_x = hits.act.shape[0] if oracle else target.s
        declared = not oracle and target.halfspaces is not None
        push = 1.0 + NORMAL_PUSH if oracle and self.eps == 0 else 1.0
        grad, n_tied, max_ratio2 = np.zeros(target.x_dim), 0, 0.0
        c, rho_max = np.zeros(n_x), np.zeros(n_x)   # declared rows: sum mass rho, max rho
        for sl in _blocks(self.dirs.n):
            act, rho = hits.act[:, sl], hits.rho[sl]
            n_active = act.sum(axis=0, dtype=np.min_scalar_type(act.shape[0]))
            n_tied += int(np.count_nonzero(n_active > 1))
            # The active (row, direction) pairs of the x-dependent rows, row by row.
            ri, ci = np.divmod(np.flatnonzero(act[:n_x]), act.shape[1])
            if ri.size == 0:
                continue
            bounds = np.searchsorted(ri, np.arange(n_x + 1))   # row i: bounds[i]:bounds[i + 1]
            live, rho_p = np.flatnonzero(np.diff(bounds)), rho.take(ci)
            lam = (1 / n_active.take(ci) if tie_policy == "average"
                   else np.argmax(act, axis=0).take(ci) == ri)
            mass = chi_pdf(model.dim, rho_p) * (1.0 / self.dirs.n) * lam
            if declared:
                starts = bounds.take(live)
                c[live] += np.add.reduceat(mass * rho_p, starts)
                rho_max[live] = np.maximum(rho_max[live], np.maximum.reduceat(rho_p, starts))
                continue
            for i in live.tolist():     # scanned rows and set oracles: normals at the hits
                a, b = bounds[i], bounds[i + 1]
                LV_i = self.dirs.directions[sl].take(ci[a:b], axis=0) @ model.factor_L.T
                Z = model.mean + (push * rho_p[a:b])[:, None] * LV_i
                if oracle:
                    P = target.project(x, Z)
                    gz = Z - P
                    gz /= np.maximum(np.linalg.norm(gz, axis=1), 1e-300)[:, None]
                    gx = np.asarray(target.sensitivity(x, P, gz), dtype=float)
                else:
                    gx = np.asarray(target.grad_x_g(i, x, Z), dtype=float)
                    gz = np.asarray(target.grad_z_g(i, x, Z), dtype=float)
                slope = np.einsum("km,km->k", gz, LV_i)
                if not np.all(slope > SLOPE_FLOOR):     # NaN slopes fail too
                    _breakdown(i, slope.min(), sl.start + int(ci[a + np.argmin(slope)]))
                grad -= (mass[a:b] / slope) @ gx
                # slope > 0 implies |z_i| > 0.  Squared norms; one sqrt at the end.
                ratio2 = np.einsum("km,km->k", gx, gx) / np.einsum("km,km->k", gz, gz)
                max_ratio2 = max(max_ratio2, float(ratio2.max()))
        if rho_max.any():       # declared: dt_i/dx from one call per active row, at its foot
            W, gap = target.halfspaces[0], hits.gap
            ww = np.einsum("im,im->i", W, W)
            for i in np.flatnonzero(rho_max):
                foot = (model.mean + gap[i] / ww[i] * W[i])[None, :]
                gx = np.asarray(target.grad_x_g(i, x, foot), dtype=float)[0]
                s = np.asarray(target.grad_z_g(i, x, foot), dtype=float)[0] @ W[i] / ww[i]
                if not s * gap[i] / rho_max[i] > SLOPE_FLOOR:     # NaN fails too
                    k = int(np.argmax(np.where(hits.act[i], hits.rho, 0.0)))   # largest rho
                    _breakdown(i, s * gap[i] / rho_max[i], k)
                J = -gx / s
                grad += c[i] / gap[i] * J
                max_ratio2 = max(max_ratio2, float(J @ J / ww[i]))
        return GradEstimate(gradient=grad, tie_fraction=n_tied / self.dirs.n,
                            max_ratio=float(np.sqrt(max_ratio2)))


def _breakdown(i, slope, k):
    """Raise the breakdown of constraint ``i``: ray slope ``slope`` at direction ``k``."""
    raise TransversalityBreakdown(f"constraint {i}: ray slope {slope:.3e} at direction {k} "
                                  "is below the slope floor", direction_index=k)


def evaluate(target, x, model: GaussianModel, dirs: DirectionSet,
             eps: float = None) -> Evaluation:
    """Estimate P[every constraint holds] at decision ``x`` from one ray solve.

    ``target`` is an :class:`InequalitySystem`, or a :class:`ConvexSetOracle`
    together with an enlargement radius ``eps >= 0``.  The gradient at the
    same decision is read from the returned evaluation.
    """
    if dirs.n < 1:
        raise ValueError("direction set is empty")
    if dirs.dim != model.dim:
        raise ValueError(f"direction dimension {dirs.dim} != model dimension {model.dim}")
    if not isinstance(target, (InequalitySystem, ConvexSetOracle)):
        raise TypeError(f"unsupported target {type(target).__name__}")
    if target.z_dim != model.dim:
        raise ValueError(f"{target.name}: z_dim {target.z_dim} != model dimension {model.dim}")
    x = np.asarray(x, dtype=float).reshape(-1)
    eps = 0.0 if eps is None else float(eps)
    if x.shape[0] != target.x_dim:
        raise ValueError(f"decision has {x.shape[0]} entries, x_dim is {target.x_dim}")
    if isinstance(target, InequalitySystem):
        if eps != 0:
            raise ValueError("eps enlargement applies to set oracles only")
        hits = inequality_hits(target, x, dirs.directions, model)
    else:
        hits = enlarged_hits(target, x, dirs.directions, eps, model)
    e = np.asarray(chi_cdf(model.dim, hits.rho))
    std_error = None
    if dirs.method is SphereMethod.MONTE_CARLO:
        pairs = e if dirs.n % 2 else (e[0::2] + e[1::2]) / 2    # even n: antithetic pairs
        if pairs.size > 1:
            std_error = float(np.std(pairs, ddof=1) / np.sqrt(pairs.size))
    return Evaluation(value=float(e.mean()), std_error=std_error,
                      n_infinite=int((~np.isfinite(hits.rho)).sum()), e=e, hits=hits,
                      target=target, x=x, model=model, dirs=dirs, eps=eps)


def fd_gradient(target, x, model: GaussianModel, dirs: DirectionSet,
                h0: float = 1e-4, eps: float = None) -> np.ndarray:
    """Central finite differences of the value on the same direction set.

    Coordinate ``i`` steps by ``h0 * max(1, |x_i|)``.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    fd = np.zeros_like(x)
    for i in range(x.shape[0]):
        h = h0 * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fp = evaluate(target, xp, model, dirs, eps=eps).value
        fm = evaluate(target, xm, model, dirs, eps=eps).value
        fd[i] = (fp - fm) / (2 * h)
    return fd
