"""Exception hierarchy shared across the package.

``NumericalError`` covers failures of the numerical machinery itself
(bad models, diverged subsolvers, violated structural assumptions).
``SolverError`` covers failures of the outer chance-constrained solve.
The CLI maps these onto distinct exit codes.
"""


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


class NumericalError(Exception):
    """Base class for failures of the numerical machinery."""


class NotPositiveDefinite(NumericalError):
    """Covariance assembly produced a non positive definite matrix."""


class InteriorViolated(NumericalError):
    """The interior condition g_i(x, mean) < 0 fails at the requested point."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class ProjectionDiverged(NumericalError):
    """A projection subsolver failed to converge; numerical defect, not a model property."""


class BracketFailure(NumericalError):
    """A ray scan saw more than one sign change, violating quasi-convexity."""


class TransversalityBreakdown(NumericalError):
    """The gradient denominator fell below the slope floor for an active constraint."""

    def __init__(self, message, direction_index=None):
        super().__init__(message)
        self.direction_index = direction_index


class MissingSensitivity(NumericalError):
    """A set-oracle gradient needs a sensitivity callback the oracle does not provide."""


class SolverError(Exception):
    """Base class for chance-constrained solver failures."""


class NoFeasibleStart(SolverError):
    """The solver gave up before any iterate reached the required probability level."""


class LPInfeasible(SolverError):
    """The solver gave up after an iterate had reached the required probability level."""
