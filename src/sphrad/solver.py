"""Trust-region successive linearization for chance-constrained programs.

Solves ``min c.x  s.t.  phat(x) >= p,  lower <= x <= upper`` where ``phat``
is the common-random-numbers probability estimator.  Each iteration solves
the linearized subproblem

    min c.x   s.t.  phat(x_k) + g_k.(x - x_k) >= p,
                    box bounds,  |x - x_k|_inf <= delta_k

which, being a box plus a single cut, is solved exactly by a greedy
active-set walk (a continuous knapsack).  Steps whose true estimate falls
below ``p - INFEAS_TOL`` are rejected and shrink the trust radius; accepted
steps that fail to improve the cost also shrink it, which removes vertex
zigzagging.  Where the cut cannot be met inside the trust box, a restoration
step moves to the box corner along the gradient and is kept if phat rises;
that is how an infeasible start climbs to the level.  Because the direction
set is fixed, the whole solve is deterministic for a given problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InteriorViolated, LPInfeasible, NoFeasibleStart
from .estimates import ProbEstimate, evaluate
from .gaussian import DirectionSet, GaussianModel
from .oracles import InequalitySystem

MAX_ITERS = 2000         # iterations before the solve stops at the cap
STEP_TOL = 1e-4          # accepted step length (inf-norm) counted as converged
PROB_BAND = 5e-3         # |phat - p| window accepted at convergence
INFEAS_TOL = 1e-3        # accepted iterates keep phat >= p - INFEAS_TOL
DELTA0 = 1.0             # initial trust radius
DELTA_MAX = 8.0          # largest trust radius
DELTA_MIN = 1e-12        # trust radius below which the solve gives up
GROW = 2.0               # trust radius factor after a cost-improving step
SHRINK = 0.5             # factor after a rejected or non-improving step


@dataclass(frozen=True)
class ChanceProblem:
    cost: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    p_level: float
    system: InequalitySystem
    model: GaussianModel
    eval_dirs: DirectionSet
    validate_dirs: DirectionSet
    start: Optional[np.ndarray] = None

    def __post_init__(self):
        for name in ("cost", "lower", "upper"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name), dtype=float).reshape(-1))
        if self.start is not None:
            object.__setattr__(self, "start",
                               np.asarray(self.start, dtype=float).reshape(-1))
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        if not 0.0 < self.p_level < 1.0:
            raise ValueError("p_level must lie in (0, 1)")
        if (self.eval_dirs.seed == self.validate_dirs.seed
                and self.eval_dirs.method == self.validate_dirs.method):
            raise ValueError("evaluation and validation direction seeds must differ")


@dataclass
class IterationRecord:
    k: int
    x: np.ndarray
    cost: float
    phat: float
    step_norm: float
    delta: float
    accepted: bool


@dataclass
class SolveTrace:
    records: list
    status: str = ""

    def to_jsonl_rows(self):
        for r in self.records:
            yield {"k": r.k, "x": [float(v) for v in r.x], "cost": r.cost,
                   "phat": r.phat,
                   "step_norm": r.step_norm if np.isfinite(r.step_norm) else None,
                   "delta": r.delta, "accepted": r.accepted}


def _lp_box_cut(cost, lower, upper, a, b):
    """Exact solution of min cost.x s.t. lower<=x<=upper, a.x >= b.

    Returns (x, feasible, cut_was_slack): ``cut_was_slack`` is True when the
    unconstrained box minimizer already satisfied the cut.
    """
    x = np.where(cost > 0, lower, np.where(cost < 0, upper,
                 np.where(a >= 0, upper, lower)))
    gap = b - a @ x
    if gap <= 1e-12:
        return x, True, True
    moves = []
    for i in range(cost.shape[0]):
        if a[i] > 0 and x[i] < upper[i]:
            d, extent = 1.0, upper[i] - x[i]
        elif a[i] < 0 and x[i] > lower[i]:
            d, extent = -1.0, x[i] - lower[i]
        else:
            continue
        rate = (cost[i] * d) / (a[i] * d)     # cost per unit of cut gain
        moves.append((rate, i, d, extent))
    moves.sort(key=lambda t: (t[0], t[1]))
    for rate, i, d, extent in moves:
        if gap <= 1e-12:
            break
        take = min(extent, gap / abs(a[i]))
        x[i] += d * take
        gap -= abs(a[i]) * take
    return x, gap <= 1e-9, False


def _evaluate(problem, x):
    return evaluate(problem.system, x, problem.model, problem.eval_dirs)


def _give_up(trace, p, why):
    """NoFeasibleStart while no iterate has reached p - INFEAS_TOL, else LPInfeasible."""
    best = max(r.phat for r in trace.records)
    return (NoFeasibleStart if best < p - INFEAS_TOL else LPInfeasible)(
        f"{why}; best phat {best:.6f}, level {p}")


def solve(problem: ChanceProblem):
    """Run the trust-region SLP loop; returns (x_final, SolveTrace).

    The loop starts at the clipped start point, feasible or not: while the
    linearized cut cannot be met inside the trust box, restoration steps
    climb phat.  When no ascent direction is left or the trust region is
    exhausted, raises :class:`NoFeasibleStart` if no iterate has reached
    ``p - INFEAS_TOL`` and :class:`LPInfeasible` otherwise.
    """
    p = problem.p_level
    x0 = (problem.start if problem.start is not None
          else 0.5 * (problem.lower + problem.upper))
    x = np.clip(x0, problem.lower, problem.upper)
    ev = _evaluate(problem, x)
    phat = ev.value
    g = ev.gradient().gradient

    delta = DELTA0
    trace = SolveTrace(records=[])
    trace.records.append(IterationRecord(0, x.copy(), float(problem.cost @ x),
                                         phat, np.inf, delta, phat >= p - INFEAS_TOL))
    for k in range(1, MAX_ITERS + 1):
        lk = np.maximum(problem.lower, x - delta)
        uk = np.minimum(problem.upper, x + delta)
        b = p - phat + g @ x
        x_lp, feasible, cut_slack = _lp_box_cut(problem.cost, lk, uk, g, b)
        if not feasible:
            # Restoration: climb the linearized probability inside the box.
            x_lp = np.where(g > 0, uk, np.where(g < 0, lk, x))
            if np.max(np.abs(x_lp - x)) == 0:
                raise _give_up(trace, p, "linearized subproblem infeasible and "
                                         "no ascent direction")
        step = float(np.max(np.abs(x_lp - x)))
        try:
            # A zero step keeps x and its estimate: no second ray solve.
            ev_new = ev if step == 0.0 else _evaluate(problem, x_lp)
            p_new = ev_new.value
        except InteriorViolated:
            p_new = -np.inf
        accept = feasible and p_new >= p - INFEAS_TOL
        climbed = not feasible and p_new > phat + 1e-12    # a successful restoration step
        if accept:
            if float(problem.cost @ x_lp) >= float(problem.cost @ x) - 1e-12:
                # No cost progress: contract to break vertex zigzags.
                delta = max(delta * SHRINK, DELTA_MIN)
            else:
                delta = min(delta * GROW, DELTA_MAX)
        elif not climbed:
            delta *= SHRINK
            if delta < DELTA_MIN:
                raise _give_up(trace, p, "trust region exhausted while rejecting steps")
        if accept or climbed:
            x, ev, phat = x_lp, ev_new, p_new
            g = ev.gradient().gradient
        trace.records.append(IterationRecord(k, x.copy(), float(problem.cost @ x),
                                             phat, step, delta, accept))
        if accept and step <= STEP_TOL and (abs(phat - p) <= PROB_BAND
                                                 or cut_slack):
            trace.status = "box_optimum" if cut_slack else "converged"
            return x, trace
    trace.status = "iteration_cap"
    return x, trace


def validate(x, problem: ChanceProblem) -> ProbEstimate:
    """Independent probability estimate at ``x`` using the validation set.

    Only the estimate is returned, so a caller that keeps results does not
    keep the large validation set's per-direction arrays alive.
    """
    ev = evaluate(problem.system, x, problem.model, problem.validate_dirs)
    return ProbEstimate(value=ev.value, std_error=ev.std_error, n_infinite=ev.n_infinite)
