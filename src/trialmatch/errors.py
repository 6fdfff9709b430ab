"""Exception hierarchy shared across the package: one type per exit code.

The CLI maps these onto exit codes: ConfigError -> 1 (usage),
DataError -> 2 (bad input data), ProviderError -> 3 (runtime/provider).
A raise site tells its cases apart by message, not by type.

Two subclasses of DataError stay because code catches them to recover:
``harness`` falls back to mean pooling on a DegenerateVarianceError, and
``metrics.compute_report`` reports a metric as absent on an
UndefinedMetricError. Uncaught, both exit 2 like any data error.
"""


class TrialMatchError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(TrialMatchError):
    """A configuration value or argument violates its contract."""


class DataError(TrialMatchError):
    """Input data violates a documented invariant."""


class ProviderError(TrialMatchError):
    """An embedding provider failed at runtime, or its service answered
    with a malformed payload."""


class DegenerateVarianceError(DataError):
    """All variance in the input is zero; principal directions undefined."""


class UndefinedMetricError(DataError):
    """The metric is undefined for this input (reported as absent, not zero)."""
