"""Exception hierarchy shared across the package.

The CLI maps these onto stable exit codes: config errors -> 2, data errors -> 3,
estimation errors -> 4, sensitivity-incompatibility -> 5.
"""


class PsemError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PsemError):
    """Invalid configuration (bad keys, illegal parameter ranges, bad paths)."""


class DataError(PsemError):
    """Malformed or structurally inconsistent input data."""


class EstimationError(PsemError):
    """Estimation failed: non-convergence, singular systems, violated orderings."""

    def __init__(self, message, theta=None, residual=None):
        super().__init__(message)
        self.theta = theta
        self.residual = residual


class ConvergenceError(EstimationError):
    """Root finder did not converge; carries the last iterate and residual."""


class OrderingError(EstimationError):
    """A testable ordering assumption (A4'' or A5') fails in the data."""


class IncompatibleSensitivityError(PsemError):
    """Sensitivity parameters are incompatible with the observed data law.

    Raised when a mixture solve leaves [0, 1], a derived risk falls outside
    [0, 1], or a nuisance equation has no root in its bracket.
    """


class PositivityError(DataError):
    """Estimated sampling probabilities fall below the configured floor."""


class SeparationError(EstimationError):
    """Logistic missingness MLE diverged; design-known weights are advised."""
