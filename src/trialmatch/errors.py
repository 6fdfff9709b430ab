"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1 (usage),
DataError -> 2 (bad input data), ProviderError -> 3 (runtime/provider).
"""


class TrialMatchError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(TrialMatchError):
    """A configuration value or argument violates its contract."""


class DataError(TrialMatchError):
    """Input data violates a documented invariant."""


class ProviderError(TrialMatchError):
    """An embedding provider failed at runtime."""


class DimensionMismatchError(DataError):
    """Vector or matrix dimensions disagree with a declared dimension."""


class NoChunksError(DataError):
    """A patient has no retrievable text."""


class InsufficientTokensError(DataError):
    """Too few token rows for the requested transform."""


class DegenerateVarianceError(DataError):
    """All variance in the input is zero; principal directions undefined."""


class SingleClassError(DataError):
    """Training data contains only one label class."""


class UndefinedMetricError(DataError):
    """The metric is undefined for this input (reported as absent, not zero)."""


class ProviderTimeoutError(ProviderError):
    """The embedding service did not answer within the configured timeout."""


class ProviderStatusError(ProviderError):
    """The embedding service answered with a non-2xx status."""


class ProviderResponseError(ProviderError):
    """The embedding service answered with a malformed payload."""
