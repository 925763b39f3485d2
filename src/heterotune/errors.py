"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so new error conditions
should subclass one of the three roots below rather than raising bare
ValueError from user-facing paths.
"""


class DataFormatError(ValueError):
    """Malformed or inconsistent input file (platform file, manifest, grid)."""


class EstimatorError(RuntimeError):
    """Prediction-stage failure."""


class InsufficientSamplesError(EstimatorError):
    """Fewer observed cells than the regression basis requires."""


class BackendError(RuntimeError):
    """Measurement backend could not produce a result."""
