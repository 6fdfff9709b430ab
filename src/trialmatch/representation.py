"""Pooling and PCA-based compression of token matrices.

A token matrix (l tokens x d_hidden) collapses to a fixed-size vector through
one of: mean pooling, per-matrix PCA projection plus averaging, last-token
selection, or axis-configurable compression (sequence axis or hidden axis).
All transforms are pure and deterministic; the eigenvector sign convention
(largest-magnitude coordinate positive) makes repeated fits bit-identical.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DegenerateVarianceError,
    DimensionMismatchError,
    InsufficientTokensError,
)

DEFAULT_HIDDEN_COMPONENTS = 128
DEFAULT_SEQUENCE_COMPONENTS = 1

POOLING_STRATEGIES = (
    "mean",
    "pca_mean",
    "last_token",
    "dimred_sequence",
    "dimred_hidden",
    "hybrid_concat",
)


@dataclass(frozen=True)
class PCAModel:
    """Fitted mean, orthonormal projection columns, and their eigenvalues."""

    mean: np.ndarray          # (f,)
    components: np.ndarray    # (f, n_components), orthonormal columns
    eigenvalues: np.ndarray   # (n_components,), non-increasing, >= 0
    n_samples_fit: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "mean": self.mean.tolist(),
                "components": self.components.tolist(),
                "eigenvalues": self.eigenvalues.tolist(),
                "n_samples_fit": self.n_samples_fit,
            }
        )

    @classmethod
    def from_json(cls, payload: str | dict) -> "PCAModel":
        obj = json.loads(payload) if isinstance(payload, str) else payload
        return cls(
            mean=np.asarray(obj["mean"], dtype=np.float64),
            components=np.asarray(obj["components"], dtype=np.float64),
            eigenvalues=np.asarray(obj["eigenvalues"], dtype=np.float64),
            n_samples_fit=int(obj["n_samples_fit"]),
        )


@dataclass(frozen=True)
class DimRedConfig:
    """Axis and component count for compression.

    ``n_components=None`` resolves to the per-axis default: 1 for the sequence
    axis, 128 for the hidden axis. Sequence-axis compression is inherently
    per-chunk (its feature axis is token position); hidden-axis compression
    defaults to per-chunk with an optional dataset-level scope fitted on
    stacked pooled vectors.
    """

    axis: str = "sequence"  # "sequence" | "hidden"
    n_components: Optional[int] = None
    fit_scope: str = "per_chunk"  # "per_chunk" | "dataset"

    def __post_init__(self) -> None:
        if self.axis not in ("sequence", "hidden"):
            raise ConfigError(f"unknown DimRed axis {self.axis!r}")
        if self.fit_scope not in ("per_chunk", "dataset"):
            raise ConfigError(f"unknown fit scope {self.fit_scope!r}")
        if self.axis == "sequence" and self.fit_scope != "per_chunk":
            raise ConfigError("sequence-axis DimRed requires per_chunk fit scope")
        if self.n_components is not None and self.n_components < 1:
            raise ConfigError("n_components must be positive")

    @property
    def resolved_components(self) -> int:
        if self.n_components is not None:
            return self.n_components
        return (
            DEFAULT_SEQUENCE_COMPONENTS
            if self.axis == "sequence"
            else DEFAULT_HIDDEN_COMPONENTS
        )


@dataclass(frozen=True)
class PooledVector:
    values: np.ndarray
    strategy: str

    def __post_init__(self) -> None:
        if self.strategy not in POOLING_STRATEGIES:
            raise ConfigError(f"unknown pooling strategy {self.strategy!r}")

    def __len__(self) -> int:
        return int(self.values.shape[0])


def _as_matrix(m: np.ndarray, what: str = "token matrix") -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DataError(f"{what} must be a non-empty 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DataError(f"{what} contains non-finite values")
    return m


# ---------------------------------------------------------------------------
# PCA
# ---------------------------------------------------------------------------

def _apply_sign_convention(components: np.ndarray) -> np.ndarray:
    for j in range(components.shape[1]):
        col = components[:, j]
        if col[int(np.argmax(np.abs(col)))] < 0:
            components[:, j] = -col
    return components


@functools.lru_cache(maxsize=None)
def _unit_start(k: int) -> np.ndarray:
    """The inverse iteration's start: a fixed seeded Gaussian unit vector of
    length ``k``, read-only and shared by every call of that size (``k`` is
    at most the hidden dimension). A Gram matrix of column-centered data has
    the ones vector in its null space, so a structured start can miss the top
    eigenvector."""
    x = np.random.default_rng(0).standard_normal(k)
    x /= np.linalg.norm(x)
    x.flags.writeable = False
    return x


def _refine_top_eigenvector(sym: np.ndarray, top: float) -> np.ndarray:
    """Two steps of inverse iteration shifted just above the top eigenvalue.

    With the shift 1e-12 |top| above it, each step shrinks every other
    eigendirection by about 1e-12 |top| / gap, so two steps reach rounding
    level even on the flat spectra of token matrices (second eigenvalue up to
    0.995 of the first), where power iteration would need thousands of
    products.
    """
    shifted = sym.astype(np.float64)  # a copy
    shifted.flat[:: sym.shape[0] + 1] -= top + 1e-12 * abs(top)
    x = _unit_start(sym.shape[0])
    for _ in range(2):
        x = np.linalg.solve(shifted, x)
        x /= np.linalg.norm(x)
    return x


def _top_eigenpairs(sym: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n`` largest eigenvalues of a symmetric matrix, non-increasing,
    and their unit eigenvectors as columns.

    For one pair the eigenvalue comes from ``eigvalsh`` and the vector from
    shifted inverse iteration, accepted when ``||S x - l x|| <= 1e-9 |l|``;
    otherwise, and for ``n > 1``, from the full ``eigh`` decomposition.
    """
    if n == 1:
        top = float(np.linalg.eigvalsh(sym)[-1])
        try:
            x = _refine_top_eigenvector(sym, top)
        except np.linalg.LinAlgError:
            x = None
        if x is not None and np.linalg.norm(sym @ x - top * x) <= 1e-9 * abs(top):
            return np.array([top]), x[:, None]
    eigenvalues, eigenvectors = np.linalg.eigh(sym)
    order = np.argsort(eigenvalues)[::-1][:n]
    return eigenvalues[order], eigenvectors[:, order]


def _check_fit_shape(s: int, f: int, n_components: int) -> None:
    if s < 2:
        raise DataError(f"pca_fit needs at least 2 samples (covariance uses s-1), got {s}")
    max_components = min(s - 1, f)
    if not 1 <= n_components <= max_components:
        raise ConfigError(
            f"n_components={n_components} out of range [1, {max_components}] "
            f"for shape ({s}, {f})"
        )


def pca_fit(data: np.ndarray, n_components: int) -> PCAModel:
    """Fit principal components of an (s samples x f features) matrix.

    Uses the sample covariance T = centered^T centered / (s - 1). When the
    matrix is wide (s < f) the eigenpairs come from the s x s Gram matrix,
    which has the same nonzero spectrum; results agree with the direct
    covariance decomposition. One component is found by a top-eigenpair
    solver instead of a full decomposition (see ``_top_eigenpairs``); it
    agrees with ``eigh`` to rounding level.
    """
    data = _as_matrix(data, "pca input")
    _check_fit_shape(*data.shape, n_components)
    mean = data.mean(axis=0)
    return _fit_centered(data - mean, mean, n_components)


def _fit_centered(centered: np.ndarray, mean: np.ndarray, n_components: int) -> PCAModel:
    """``pca_fit`` on input already validated and centered on ``mean``."""
    s, f = centered.shape
    if s >= f:
        top_values, components = _top_eigenpairs(centered.T @ centered / (s - 1), n_components)
    else:
        top_values, dual = _top_eigenpairs(centered @ centered.T / (s - 1), n_components)
        scale = np.max(np.abs(top_values))
        if top_values[-1] <= max(scale, 1.0) * 1e-12:
            # Rank-deficient inside the requested components: the Gram route
            # cannot recover those directions, so fall back to the covariance.
            top_values, components = _top_eigenpairs(
                centered.T @ centered / (s - 1), n_components
            )
        else:
            components = centered.T @ dual
            norms = np.linalg.norm(components, axis=0)
            components = components / norms

    components = _apply_sign_convention(components)
    return PCAModel(
        mean=mean,
        components=components,
        eigenvalues=np.maximum(top_values, 0.0),
        n_samples_fit=s,
    )


def pca_project(model: PCAModel, data: np.ndarray) -> np.ndarray:
    """Project rows into the fitted component space: (data - mean) @ W."""
    data = _as_matrix(data, "projection input")
    if data.shape[1] != model.mean.shape[0]:
        raise DimensionMismatchError(
            f"data has {data.shape[1]} features, model expects {model.mean.shape[0]}"
        )
    return (data - model.mean) @ model.components


def _compress(data: np.ndarray, n_components: int) -> np.ndarray:
    """Scores of ``data`` on its own top principal components.

    One centered copy serves the degenerate-variance check, the fit and the
    projection; ``data`` must already be a finite 2-D float matrix.
    """
    mean = data.mean(axis=0)
    centered = data - mean
    total_variance = float(np.sum(centered * centered)) / (data.shape[0] - 1)
    scale = max(1.0, float(np.mean(data * data)))
    if total_variance <= 1e-12 * scale:
        raise DegenerateVarianceError(
            "input has zero variance; principal directions are undefined"
        )
    _check_fit_shape(*data.shape, n_components)
    return centered @ _fit_centered(centered, mean, n_components).components


# ---------------------------------------------------------------------------
# Pooling strategies
# ---------------------------------------------------------------------------

def mean_pool(m: np.ndarray) -> PooledVector:
    """Average over the token axis; output length d_hidden."""
    m = _as_matrix(m)
    return PooledVector(values=m.mean(axis=0), strategy="mean")


def select_last_token(m: np.ndarray) -> PooledVector:
    """The final token row as a compact whole-chunk summary."""
    m = _as_matrix(m)
    return PooledVector(values=m[-1].copy(), strategy="last_token")


def pool_pca_mean(m: np.ndarray, n_components: int) -> PooledVector:
    """Per-matrix PCA projection averaged over tokens; output length n_components.

    The projection centers the rows, so the row mean of the projected scores
    is zero by construction; this strategy is kept for parity with the
    hidden-axis compression it defines.
    """
    m = _as_matrix(m)
    if m.shape[0] < 2:
        raise InsufficientTokensError(
            f"pca pooling needs at least 2 token rows, got {m.shape[0]}"
        )
    projected = _compress(m, n_components)
    return PooledVector(values=projected.mean(axis=0), strategy="pca_mean")


def dimred(m: np.ndarray, cfg: DimRedConfig) -> PooledVector:
    """Axis-configurable compression of one token matrix.

    hidden axis: PCA over rows=tokens, features=dims; output is the mean of
    the projected rows (length n_components, identical to pool_pca_mean).

    sequence axis: PCA over the transposed matrix (samples are the d_hidden
    per-dimension profiles, features are token positions). With one component
    the output is the full score column (length d_hidden), a token-axis
    compression of the sequence; with more components the projected rows are
    averaged (length n_components).
    """
    m = _as_matrix(m)
    l, d = m.shape
    n = cfg.resolved_components

    if cfg.axis == "hidden":
        if l < 2:
            raise InsufficientTokensError(
                f"hidden-axis compression needs at least 2 tokens, got {l}"
            )
        if n > min(l - 1, d):
            raise ConfigError(
                f"n_components={n} out of range [1, {min(l - 1, d)}] for a "
                f"{l}x{d} matrix on the hidden axis"
            )
        pooled = pool_pca_mean(m, n)
        return PooledVector(values=pooled.values, strategy="dimred_hidden")

    if d < 2:
        raise DataError("sequence-axis compression needs d_hidden >= 2")
    if n > min(d - 1, l):
        raise ConfigError(
            f"n_components={n} out of range [1, {min(d - 1, l)}] for a "
            f"{l}x{d} matrix on the sequence axis"
        )
    # d_hidden rows, one per-dimension profile across positions
    projected = _compress(m.T, n)
    if n == 1:
        values = projected[:, 0].copy()
    else:
        values = projected.mean(axis=0)
    return PooledVector(values=values, strategy="dimred_sequence")


def hybrid_concat(a: PooledVector, b: PooledVector) -> PooledVector:
    """Concatenate two pooled vectors; lengths add."""
    return PooledVector(
        values=np.concatenate([a.values, b.values]), strategy="hybrid_concat"
    )
