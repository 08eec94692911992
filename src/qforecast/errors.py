"""Exception hierarchy shared across the package."""


class QForecastError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(QForecastError, ValueError):
    """An array argument has the wrong length or shape."""


class NumericError(QForecastError, ArithmeticError):
    """A numeric invariant was violated (non-finite value, negative error...)."""


class NumericDivergenceError(NumericError):
    """Training produced a NaN/inf loss; reported rather than crashed."""


class ConfigurationError(QForecastError, ValueError):
    """A configuration value violates a precondition."""


class DataError(QForecastError, ValueError):
    """Malformed or inconsistent input data."""


class MetricUndefinedError(QForecastError, ValueError):
    """A metric could not be computed (e.g. every target excluded)."""


class CheckpointVersionError(QForecastError, ValueError):
    """A persisted artifact carries an unsupported schema version."""
