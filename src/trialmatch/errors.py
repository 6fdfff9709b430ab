"""Exception hierarchy shared across the package: one type per exit code.

The CLI maps these onto exit codes: ConfigError -> 1 (usage),
DataError -> 2 (bad input data), ProviderError -> 3 (runtime/provider).
A raise site tells its cases apart by message, not by type.

One subclass of DataError stays because code catches it to recover:
``harness`` falls back to mean pooling on a DegenerateVarianceError.
Uncaught, it exits 2 like any data error.

``reject_unread`` owns the rule that every config object shares: a key
that no run reads is a ConfigError. It is the one place that compares a
value with its class default.
"""


class TrialMatchError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(TrialMatchError):
    """A configuration value or argument violates its contract."""


def reject_unread(obj, keys, reader: str) -> None:
    """Raise a ConfigError for the first of ``keys`` that ``obj`` sets away
    from its class default, since no ``reader`` reads it."""
    for key in keys:
        if getattr(obj, key) != getattr(type(obj), key):
            raise ConfigError(f"{key!r} is read by no {reader}")


class DataError(TrialMatchError):
    """Input data violates a documented invariant."""


class ProviderError(TrialMatchError):
    """An embedding provider failed at runtime, or its service answered
    with a malformed payload."""


class DegenerateVarianceError(DataError):
    """All variance in the input is zero; principal directions undefined."""
