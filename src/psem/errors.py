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


class OrderingError(EstimationError):
    """A testable ordering assumption (A4'' or A5') fails in the data."""


class IncompatibleSensitivityError(PsemError):
    """Sensitivity parameters are incompatible with the observed data law.

    Raised when a mixture target leaves [0, 1], a mixture solve has no root
    with logit in [-45, 45], or a derived risk falls outside [0, 1].
    """


class PositivityError(DataError):
    """Estimated sampling probabilities fall below the configured floor."""


class SeparationError(EstimationError):
    """Logistic missingness MLE diverged; design-known weights are advised."""
