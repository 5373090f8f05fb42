"""Probability values and gradients from one ray solve per decision.

The probability of the feasible event is the direction-average of the chi
cdf at the radial function; infinite directions contribute exactly one.
The gradient reads the same hits: per finite direction it weighs a
decision-space normal of each active constraint by the chi density at the
hit over the ray slope of that constraint.  Evaluating value and gradient
on one fixed direction set (common random numbers) makes both smooth
deterministic functions of the decision, which the finite-difference
identities and the outer solver rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import MissingSensitivity, TransversalityBreakdown
from .gaussian import DirectionSet, GaussianModel, RadialLaw, SphereMethod, chi_cdf, chi_pdf
from .oracles import ConvexSetOracle, InequalitySystem
from .radial import SLOPE_FLOOR, HitBatch, enlarged_hits, inequality_hits


@dataclass(frozen=True)
class GradEstimate:
    """Estimated gradient (or subdifferential element when ties occur).

    ``tie_fraction`` is the fraction of directions whose active set has more
    than one element; with no ties the estimate is the gradient of the
    common-random-numbers value estimator.  ``w`` holds the per-direction
    contributions, shape (n_directions, x_dim).

    The growth check ``max_ratio`` is the largest |grad_x g| / |grad_z g|
    over the finite boundary hits (|sensitivity| / |u| for a set oracle);
    ``n_points`` counts the finite hits.  Together with the chi density the
    ratio bounds the per-direction weight, so a finite ratio is evidence the
    gradient estimator is well posed near ``x``.
    """

    gradient: np.ndarray
    tie_fraction: float
    w: np.ndarray
    max_ratio: float
    n_points: int


@dataclass(frozen=True)
class ProbEstimate:
    """Estimated probability and its error bar.

    ``std_error`` is the Monte Carlo standard error and is ``None`` in QMC
    mode, where no error bar is computed.
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

    def _normals(self):
        """Yield (constraint, mask, rows ``L v``, decision normal, z normal) per
        active set, the normals taken at the boundary points ``mean + rho L v``
        of the masked rows.

        The ray slope is the z normal against ``L v``: ``grad_z g`` for an
        inequality system, the projection residual ``u`` (norm eps) for a
        set oracle, whose decision normal is the oracle's sensitivity.
        """
        hits, x, target = self.hits, self.x, self.target
        oracle = isinstance(target, ConvexSetOracle)
        for i, mask in enumerate((hits.act if oracle else hits.act[:target.s]) & hits.finite):
            if not mask.any():
                continue
            LV = self.dirs.directions[mask] @ self.model.factor_L.T
            Z = self.model.mean + hits.rho[mask, None] * LV
            if oracle:
                P = target.project(x, Z)
                U = Z - P
                yield i, mask, LV, np.asarray(target.sensitivity(x, Z, P, U), dtype=float), U
            else:
                yield (i, mask, LV, np.asarray(target.grad_x_g(i, x, Z), dtype=float),
                       np.asarray(target.grad_z_g(i, x, Z), dtype=float))

    def gradient(self, tie_policy: str = "average") -> GradEstimate:
        """Estimate the gradient from the hits of this evaluation.

        Per finite direction the contribution is
        ``-pdf(rho) * sum_{i active} lambda_i * n_i / <z_i, Lv>`` with
        ``(n_i, z_i)`` the decision and z normals of :meth:`_normals`;
        infinite directions contribute zero.  Ties are split uniformly
        (``average``) or resolved to the smallest active index
        (``min_index``); with ties present the result is one element of the
        subdifferential hull rather than the gradient.  A set oracle needs
        ``eps > 0`` and a sensitivity callback.
        """
        if tie_policy not in ("average", "min_index"):
            raise ValueError(f"unknown tie policy {tie_policy!r}")
        hits = self.hits
        if isinstance(self.target, ConvexSetOracle):
            if self.eps <= 0:
                raise ValueError("eps must be positive")
            if self.target.sensitivity is None:
                raise MissingSensitivity(
                    f"{self.target.name}: enlarged gradients need a sensitivity callback")
        pdf = np.asarray(chi_pdf(RadialLaw(self.model.dim), hits.rho))
        # Domain caps are x-independent: they contribute nothing to the gradient
        # but still take their share of the tie weight.
        n_active = hits.act.sum(axis=0)
        first = np.argmax(hits.act, axis=0)
        w = np.zeros((self.dirs.n, self.target.x_dim))
        max_ratio = 0.0
        for i, mask, LV, gx, gz in self._normals():
            slope = np.einsum("km,km->k", gz, LV)
            if not np.all(slope > SLOPE_FLOOR):     # NaN slopes fail too
                offender = int(np.flatnonzero(mask)[np.argmin(slope)])
                raise TransversalityBreakdown(
                    f"constraint {i}: ray slope {slope.min():.3e} at direction "
                    f"{offender} is below the slope floor", direction_index=offender)
            lam = 1 / n_active[mask] if tie_policy == "average" else first[mask] == i
            w[mask] += (-pdf[mask] * lam / slope)[:, None] * gx
            # slope > 0 implies |z_i| > 0.
            ratio = np.linalg.norm(gx, axis=1) / np.linalg.norm(gz, axis=1)
            max_ratio = max(max_ratio, float(ratio.max()))
        return GradEstimate(gradient=self.dirs.weights @ w,
                            tie_fraction=float(np.mean(n_active > 1)), w=w,
                            max_ratio=max_ratio, n_points=int(hits.finite.sum()))


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
    e = np.asarray(chi_cdf(RadialLaw(model.dim), hits.rho))
    if dirs.method is SphereMethod.MONTE_CARLO and dirs.n > 1:
        std_error = float(np.std(e, ddof=1) / np.sqrt(dirs.n))
    else:
        std_error = None
    return Evaluation(value=float(dirs.weights @ e), std_error=std_error,
                      n_infinite=int((~hits.finite).sum()), e=e, hits=hits,
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
