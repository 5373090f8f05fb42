"""Chance-constrained dispatch case study: wind plus conventional generation.

A wind turbine with cubic power curve and a conventional generator must
cover an uncertain load over ``T`` periods.  Wind speed and load are jointly
Gaussian with geometric within-block autocorrelation and a negative cross
correlation.  Both dispatch decisions (committed wind power, generator
power) are taken before the uncertainty is observed and the joint covering
constraint must hold with probability at least ``p_level``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .gaussian import DEFAULT_SEED, SphereMethod, sample_sphere
from .oracles import build_energy_covariance, make_energy_system
from .solver import ChanceProblem


@dataclass(frozen=True)
class EnergyParams:
    periods: int = 4
    wind_coeff: float = 0.032     # cubic wind-speed-to-power coefficient
    mu_wind: float = 4.23
    mu_load: float = 10.0
    rho_wind: float = 0.96
    rho_load: float = 0.8
    rho_cross: float = -0.3
    var_wind: float = 1.54
    var_load: float = 1.0
    gen_cost: float = 5.0
    wind_cap: float = 8.0
    gen_cap: float = 20.0
    p_level: float = 0.8

    def __post_init__(self):
        if not all(np.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise ValueError("energy parameters must be finite")
        if not 0.0 < self.p_level < 1.0:
            raise ValueError("p_level must lie in (0, 1)")
        if self.periods < 1:
            raise ValueError("periods must be >= 1")
        for name in ("wind_coeff", "var_wind", "var_load"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        for name in ("wind_cap", "gen_cap"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative")


def starting_point(params: EnergyParams) -> np.ndarray:
    """Commit no wind and full generation; the safest interior start."""
    T = params.periods
    return np.r_[np.zeros(T), np.full(T, params.gen_cap)]


def make_energy_problem(params: EnergyParams = None, n_dirs: int = 10000,
                        method: SphereMethod = SphereMethod.QMC,
                        seed: int = DEFAULT_SEED, validate_n: int = 200000,
                        validate_seed: int = None) -> ChanceProblem:
    """Assemble the dispatch problem with evaluation and validation sets.

    The evaluation set is reused across the whole solve (common random
    numbers); validation uses an independent, larger Monte Carlo set so a
    standard error is available.
    """
    params = params or EnergyParams()
    model = build_energy_covariance(params)
    system = make_energy_system(params)
    T = params.periods
    if validate_seed is None:
        validate_seed = int(seed) + 1
    eval_dirs = sample_sphere(model.dim, n_dirs, seed=seed, method=method)
    validate_dirs = sample_sphere(model.dim, validate_n, seed=validate_seed,
                                  method=SphereMethod.MONTE_CARLO)
    cost = np.r_[np.zeros(T), np.full(T, params.gen_cost)]
    lower = np.zeros(2 * T)
    upper = np.r_[np.full(T, params.wind_cap), np.full(T, params.gen_cap)]
    return ChanceProblem(cost=cost, lower=lower, upper=upper,
                         p_level=params.p_level, system=system, model=model,
                         eval_dirs=eval_dirs, validate_dirs=validate_dirs,
                         start=starting_point(params))
