"""Shared test utilities: finite differences, tie-window filtering, a
reference for the per-direction gradient weights and the energy test
decisions."""

import numpy as np

import sphrad as sp
from sphrad.estimates import NORMAL_PUSH, fd_gradient
from sphrad.radial import inequality_hits


def fd_rel_error(system, x, model, dirs, h0=1e-4):
    g = sp.evaluate(system, x, model, dirs).gradient().gradient
    fd = fd_gradient(system, x, model, dirs, h0=h0)
    return float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12))


def reference_weights(ev, tie_policy="average"):
    """Per-direction gradient weights (n_directions, x_dim) of an evaluation,
    from its hits and the target's callbacks: the sum over the active
    constraints i of ``-pdf(rho) * lam_i * grad_x g_i / <grad_z g_i, L v>``
    (sensitivity and unit outward normal for a set oracle, read at the hit
    pushed out by ``NORMAL_PUSH`` when eps = 0), zero on infinite
    directions.  Their mean over the directions is the gradient."""
    hits, target, x, model = ev.hits, ev.target, ev.x, ev.model
    oracle = isinstance(target, sp.ConvexSetOracle)
    pdf = sp.chi_pdf(model.dim, hits.rho)
    n_active = hits.act.sum(axis=0)
    w = np.zeros((ev.dirs.n, target.x_dim))
    push = 1.0 + NORMAL_PUSH if oracle and ev.eps == 0 else 1.0
    for i in range(1 if oracle else target.s):
        rows = np.flatnonzero(hits.act[i] & np.isfinite(hits.rho))
        if tie_policy == "min_index":
            rows = rows[np.argmax(hits.act[:, rows], axis=0) == i]
        if rows.size == 0:
            continue
        lv = ev.dirs.directions[rows] @ model.factor_L.T
        z = model.mean + (push * hits.rho[rows])[:, None] * lv
        if oracle:
            p = target.project(x, z)
            gz = (z - p) / np.linalg.norm(z - p, axis=1)[:, None]
            gx = target.sensitivity(x, p, gz)
        else:
            gx, gz = target.grad_x_g(i, x, z), target.grad_z_g(i, x, z)
        lam = 1.0 if tie_policy == "min_index" else 1.0 / n_active[rows]
        w[rows] += (-pdf[rows] * lam / np.einsum("km,km->k", gz, lv))[:, None] * gx
    return w


def _pattern(system, x, model, dirs):
    batch = inequality_hits(system, x, dirs.directions, model)
    return batch.act.copy(), np.isfinite(batch.rho)


def window_tie_free(system, x, model, dirs, h0=1e-4):
    """True when no direction changes its active pattern across the FD window."""
    x = np.asarray(x, dtype=float)
    ref = _pattern(system, x, model, dirs)
    for i in range(x.shape[0]):
        h = h0 * max(1.0, abs(x[i]))
        for sign in (-1.0, 1.0):
            xp = x.copy()
            xp[i] += sign * h
            a, f = _pattern(system, xp, model, dirs)
            if not (np.array_equal(a, ref[0]) and np.array_equal(f, ref[1])):
                return False
    return True


def energy_case(decision):
    """Energy system, model and decision; ``tied`` adds a direction on which
    period 0's wind and load constraints are hit at the same radius."""
    params = sp.EnergyParams()
    system = sp.make_energy_system(params)
    model = sp.build_energy_covariance(params)
    T = params.periods
    if decision == "start":
        return system, model, sp.starting_point(params), None
    x = np.r_[np.full(T, 1.5), np.full(T, 11.0)]
    if decision == "interior":
        return system, model, x, None
    zstar = model.mean.copy()
    zstar[0] = np.cbrt(x[0] / params.wind_coeff)
    zstar[T] = x[0] + x[T]
    d = np.linalg.solve(model.factor_L, zstar - model.mean)
    return system, model, x, d / np.linalg.norm(d)
