"""Exception hierarchy shared across the package: one type per exit code.

The CLI maps these onto exit codes: ConfigError -> 1 (usage),
DataError -> 2 (bad input data), ProviderError -> 3 (runtime/provider).
A raise site tells its cases apart by message, not by type.

One subclass of DataError stays because code catches it to recover:
``harness`` falls back to mean pooling on a DegenerateVarianceError.
Uncaught, it exits 2 like any data error.

``reject_unread`` owns the rule that every config object shares (a key no
run reads is a ConfigError) and is the one place that compares a value with
its class default; ``check_seed`` owns the rule of every configured seed.
``as_matrix`` owns the rule of every numeric matrix (finite, 2-D and
non-empty) and ``as_labels`` that of labels (0 or 1, one per row).
"""

import numpy as np


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


def check_seed(seed: int, what: str) -> None:
    if seed < 0:  # numpy seeds only non-negative integers
        raise ConfigError(f"{what} seed must be non-negative, got {seed}")


class DataError(TrialMatchError):
    """Input data violates a documented invariant."""


def as_matrix(x, what: str) -> np.ndarray:
    """``x`` in float64 if it is a finite, non-empty 2-D array."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2 or 0 in m.shape:
        raise DataError(f"{what} must be a non-empty 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DataError(f"{what} must be finite")
    return m


def as_labels(labels, n: int, dtype=np.float64) -> np.ndarray:
    """``labels`` flattened to ``dtype`` if they are ``n`` values of 0 or 1."""
    y = np.asarray(labels, dtype=dtype).reshape(-1)
    if y.shape[0] != n:
        raise DataError(f"{n} rows but {y.shape[0]} labels")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise DataError("labels must be 0 or 1")
    return y


class ProviderError(TrialMatchError):
    """An embedding provider failed at runtime, or its service answered
    with a malformed payload."""


class DegenerateVarianceError(DataError):
    """All variance in the input is zero; principal directions undefined."""
