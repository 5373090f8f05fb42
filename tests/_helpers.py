"""Shared test utilities: finite differences, tie-window filtering and the
energy test decisions."""

import numpy as np

import sphrad as sp
from sphrad.estimates import fd_gradient
from sphrad.radial import inequality_hits


def fd_rel_error(system, x, model, dirs, h0=1e-4):
    g = sp.evaluate(system, x, model, dirs).gradient().gradient
    fd = fd_gradient(system, x, model, dirs, h0=h0)
    return float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12))


def _pattern(system, x, model, dirs):
    batch = inequality_hits(system, x, dirs.directions, model)
    return batch.act.copy(), batch.finite.copy()


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
