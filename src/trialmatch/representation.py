"""Pooling and PCA-based compression of token matrices.

A token matrix (l tokens x d_hidden) collapses to a fixed-size vector through
one of: mean pooling, per-matrix PCA projection plus averaging, last-token
selection, or sequence-axis compression to one component. Hidden-axis
compression is not per matrix: ``harness`` fits a PCA (``pca_fit``) to the
configured number of components on the train split's pooled vectors and
projects both splits with it. All transforms are pure and deterministic; the
eigenvector sign convention (largest-magnitude coordinate positive) makes
repeated fits bit-identical.

``dimred`` keeps an exact one-entry memo: the last token matrix it
compressed (a private copy) and the scores it returned. A call whose matrix
equals that copy in shape and in every bit returns a copy of the stored
scores instead of compressing again; an error is never stored. The feature
pass hands each patient's one token matrix to every variant in turn, so the
one entry serves every variant that compresses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, DegenerateVarianceError, reject_unread


@dataclass(frozen=True)
class PCAModel:
    """Fitted mean, orthonormal projection columns, and their eigenvalues."""

    mean: np.ndarray          # (f,)
    components: np.ndarray    # (f, n_components), orthonormal columns
    eigenvalues: np.ndarray   # (n_components,), non-increasing, >= 0


@dataclass(frozen=True)
class DimRedConfig:
    """The axis of compression, which also decides where it is fitted.

    ``axis="sequence"`` compresses each prompt's token matrix on its own to
    one component (``dimred``) and takes no ``n_components``.
    ``axis="hidden"`` compresses the pooled prompt vectors with a PCA fitted
    on the train split, to ``n_components`` components, which it requires.
    Each compression has one spelling, so equal compressions hash equal.
    """

    axis: str = "sequence"  # "sequence" | "hidden"
    n_components: Optional[int] = None

    def __post_init__(self) -> None:
        if self.axis not in ("sequence", "hidden"):
            raise ConfigError(f"unknown DimRed axis {self.axis!r}")
        if self.axis == "sequence":
            reject_unread(self, ("n_components",), "sequence-axis compression")
        if self.axis == "hidden" and self.n_components is None:
            raise ConfigError("hidden-axis compression requires n_components")
        if self.n_components is not None and self.n_components < 1:
            raise ConfigError("n_components must be positive")


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


def _refine_top_eigenvector(sym: np.ndarray, top: float) -> np.ndarray:
    """Two steps of inverse iteration shifted just above the top eigenvalue.

    With the shift 1e-12 |top| above it, each step shrinks every other
    eigendirection by about 1e-12 |top| / gap, so two steps reach rounding
    level even on the flat spectra of token matrices (second eigenvalue up to
    0.995 of the first), where power iteration would need thousands of
    products. ``np.linalg.solve`` rounds differently under one and two
    OpenBLAS threads, so the result's last bits depend on the BLAS thread
    count; the tests and the benchmark hold BLAS to one thread. The start is
    a seeded Gaussian unit vector: a Gram matrix of column-centered data has
    the ones vector in its null space, so a structured start can miss the
    top eigenvector.
    """
    shifted = sym.astype(np.float64)  # a copy
    shifted.flat[:: sym.shape[0] + 1] -= top + 1e-12 * abs(top)
    x = np.random.default_rng(0).standard_normal(sym.shape[0])
    x /= np.linalg.norm(x)
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
    )


def pca_project(model: PCAModel, data: np.ndarray) -> np.ndarray:
    """Project rows into the fitted component space: (data - mean) @ W."""
    data = _as_matrix(data, "projection input")
    if data.shape[1] != model.mean.shape[0]:
        raise DataError(
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

def mean_pool(m: np.ndarray) -> np.ndarray:
    """Average over the token axis; output length d_hidden."""
    return _as_matrix(m).mean(axis=0)


def select_last_token(m: np.ndarray) -> np.ndarray:
    """The final token row as a compact whole-chunk summary."""
    return _as_matrix(m)[-1].copy()


def pool_pca_mean(m: np.ndarray, n_components: int) -> np.ndarray:
    """Per-matrix PCA projection averaged over tokens; output length n_components.

    The projection centers the rows, so the row mean of the projected scores
    is zero by construction: every output entry is zero up to rounding.
    """
    m = _as_matrix(m)
    if m.shape[0] < 2:
        raise DataError(
            f"pca pooling needs at least 2 token rows, got {m.shape[0]}"
        )
    return _compress(m, n_components).mean(axis=0)


# ``dimred``'s last (input copy, scores) pair.
_dimred_memo: Optional[tuple[np.ndarray, np.ndarray]] = None


def dimred(m: np.ndarray, cfg: DimRedConfig) -> np.ndarray:
    """Sequence-axis compression of one token matrix to one component.

    PCA over the transposed matrix: the samples are the d_hidden
    per-dimension profiles across token positions, and the output is their
    score column on the top component (length d_hidden). ``cfg`` must name
    the sequence axis; hidden-axis compression is fitted on the train split
    instead. Raises ``DegenerateVarianceError`` when every profile is the
    same.

    After the checks, a matrix whose shape and bits (compared as ``uint64``,
    so ``-0.0`` is not ``0.0``) equal those of the last matrix compressed
    gets a fresh copy of that matrix's scores, which is what compressing it
    again would give. The memo lives here rather than in the caller because
    only this function knows which inputs give equal outputs; a call that
    raises stores nothing, so every caller gets its own error.
    """
    global _dimred_memo
    if cfg.axis != "sequence":
        raise ConfigError("hidden-axis compression is fitted on the train split, not per matrix")
    m = _as_matrix(m)
    if m.shape[1] < 2:
        raise DataError("sequence-axis compression needs d_hidden >= 2")
    memo = _dimred_memo
    if (
        memo is not None
        and memo[0].shape == m.shape
        and np.array_equal(memo[0].view(np.uint64), m.view(np.uint64))
    ):
        return memo[1].copy()
    # Drop the old entry first, so the new copy can reuse its memory.
    _dimred_memo = memo = None
    scores = _compress(m.T, 1)[:, 0]
    _dimred_memo = (m.copy(), scores.copy())
    return scores


def hybrid_concat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Concatenate two pooled vectors; lengths add."""
    return np.concatenate([a, b])
