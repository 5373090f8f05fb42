"""Probability functions over convex constraint systems via spherical-radial
decomposition: values, gradients, enlargements, and a chance-constrained
dispatch solver."""

from .errors import (BracketFailure, ConfigError, InteriorViolated,
                     LPInfeasible, MissingSensitivity, NoFeasibleStart,
                     NotPositiveDefinite, NumericalError, ProjectionDiverged,
                     SolverError, TransversalityBreakdown)
from .estimates import Evaluation, GradEstimate, ProbEstimate, evaluate
from .gaussian import (DEFAULT_SEED, DirectionSet, GaussianModel, SphereMethod,
                       build_model, chi_cdf, chi_cutoff, chi_pdf, sample_sphere)
from .oracles import (ConvexSetOracle, InequalitySystem, build_energy_covariance,
                      make_ball, make_constant, make_energy_system, make_halfspace,
                      make_hyperbolic_set, make_hyperbolic_system, make_slab, slab_threshold)
from .solver import ChanceProblem, IterationRecord, SolveTrace, solve, validate
from .energy import EnergyParams, make_energy_problem, starting_point

__version__ = "0.1.0"
