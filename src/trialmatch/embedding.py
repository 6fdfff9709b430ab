"""Embedding providers, the deterministic mock embedder, and an HTTP client
for external embedding services.

The HTTP client (``requests``, and with it ``urllib3`` and ``ssl``) is loaded
on the first HTTP request, so a run on the mock provider never loads it.

Providers expose a uniform surface: a ``descriptor`` plus ``embed_texts`` and
(optionally) ``embed_tokens``. Every provider must be deterministic and
batch-invariant: the vector for a text is identical regardless of batch
composition.
"""

from __future__ import annotations

import hashlib
import logging
import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DimensionMismatchError,
    ProviderError,
    ProviderResponseError,
    ProviderStatusError,
    ProviderTimeoutError,
)

if TYPE_CHECKING:
    import requests

logger = logging.getLogger("trialmatch.embedding")

ENDPOINT_ENV_VAR = "TRIALMATCH_EMBED_ENDPOINT"

DEFAULT_MOCK_DIM = 128
DEFAULT_MAX_BATCH = 64
DEFAULT_TIMEOUT = 30.0
DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_BACKOFF_BASE = 0.5
DEFAULT_BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class ProviderDescriptor:
    """Identity of an embedding backend: a name, its output dimension, and
    whether it can emit per-token hidden-state matrices."""

    name: str
    dim: int
    supports_token_matrix: bool

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ConfigError("provider dim must be positive")


def _token_seed(token: str, seed: int) -> int:
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=str(seed).encode("utf-8")
    ).digest()
    return int.from_bytes(digest, "little")


def _token_vector(token: str, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(_token_seed(token, seed))
    v = rng.standard_normal(dim)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:  # unreachable in practice; keep the contract total
        v[0] = 1.0
        norm = 1.0
    return v / norm


def mock_embed(text: str, dim: int = DEFAULT_MOCK_DIM, seed: int = 0) -> np.ndarray:
    """Deterministic bag-of-hashed-tokens embedding.

    Each whitespace token hashes to a unit pseudo-random direction; the text
    embedding is the L2-normalized sum, so lexical overlap between two texts
    raises their cosine similarity.
    """
    if dim < 2:
        raise ConfigError("mock embedding dim must be at least 2")
    return MockProvider(dim=dim, seed=seed).embed_text(text)


class MockProvider:
    """In-process stand-in for a real embedding model.

    Token vectors are cached per instance, so repeated tokens across a corpus
    cost one hash each.
    """

    def __init__(self, dim: int = DEFAULT_MOCK_DIM, seed: int = 0, name: str = "mock"):
        self.descriptor = ProviderDescriptor(name=name, dim=dim, supports_token_matrix=True)
        self._dim = dim
        self._seed = seed
        self._token_cache: dict[str, np.ndarray] = {}

    def _tok(self, token: str) -> np.ndarray:
        vec = self._token_cache.get(token)
        if vec is None:
            vec = _token_vector(token, self._dim, self._seed)
            self._token_cache[token] = vec
        return vec

    def embed_text(self, text: str) -> np.ndarray:
        tokens = text.split()
        if not tokens:
            raise DataError("cannot embed a text with no tokens")
        acc = np.zeros(self._dim)
        for token in tokens:
            acc += self._tok(token)
        norm = float(np.linalg.norm(acc))
        if norm < 1e-12:
            raise DataError("token vectors cancelled; cannot normalize embedding")
        return acc / norm

    def embed_texts(self, texts: Sequence[str]) -> list[np.ndarray]:
        return [self.embed_text(t) for t in texts]

    def embed_tokens(self, text: str) -> np.ndarray:
        tokens = text.split()
        if not tokens:
            raise DataError("cannot embed a text with no tokens")
        return np.stack([self._tok(t) for t in tokens])


class HttpProvider:
    """Client-side provider backed by an external embedding service.

    Building one loads no HTTP client; ``requests`` is imported by the first
    ``embed_texts`` call (see ``http_embed``).
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        dim: int,
        name: Optional[str] = None,
        timeout: float = DEFAULT_TIMEOUT,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        backoff_base: float = DEFAULT_BACKOFF_BASE,
        backoff_factor: float = DEFAULT_BACKOFF_FACTOR,
        session: Optional[requests.Session] = None,
    ):
        self.descriptor = ProviderDescriptor(
            name=name or model, dim=dim, supports_token_matrix=False
        )
        self.endpoint = resolve_endpoint(endpoint)
        self.model = model
        self.timeout = timeout
        self.max_batch = max_batch
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.session = session

    def embed_texts(self, texts: Sequence[str]) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for start in range(0, len(texts), self.max_batch):
            out.extend(
                http_embed(
                    self.endpoint,
                    self.model,
                    texts[start : start + self.max_batch],
                    expected_dim=self.descriptor.dim,
                    timeout=self.timeout,
                    max_attempts=self.max_attempts,
                    backoff_base=self.backoff_base,
                    backoff_factor=self.backoff_factor,
                    max_batch=self.max_batch,
                    session=self.session,
                )
            )
        return out

    def embed_tokens(self, text: str) -> np.ndarray:
        raise ConfigError(f"provider {self.descriptor.name!r} does not emit token matrices")


def resolve_endpoint(configured: Optional[str]) -> str:
    """The TRIALMATCH_EMBED_ENDPOINT env var overrides any configured endpoint."""
    endpoint = os.environ.get(ENDPOINT_ENV_VAR) or configured
    if not endpoint:
        raise ConfigError(
            f"no embedding endpoint configured and {ENDPOINT_ENV_VAR} is unset"
        )
    return endpoint


def embed_texts(provider, texts: Sequence[str]) -> list[np.ndarray]:
    """Embed a batch of texts through any provider, validating the contract."""
    if len(texts) == 0:
        raise DataError("embed_texts requires a non-empty list of texts")
    for i, text in enumerate(texts):
        if not text or not text.split():
            raise DataError(f"text at index {i} is empty")
    vectors = provider.embed_texts(list(texts))
    if len(vectors) != len(texts):
        raise ProviderError(
            f"provider returned {len(vectors)} vectors for {len(texts)} texts"
        )
    dim = provider.descriptor.dim
    for i, vec in enumerate(vectors):
        if vec.shape != (dim,):
            raise DimensionMismatchError(
                f"vector {i} has shape {vec.shape}, expected ({dim},)"
            )
    return vectors


def embed_tokens(provider, text: str) -> np.ndarray:
    """Per-token hidden-state matrix (one row per token) for a single text."""
    if not provider.descriptor.supports_token_matrix:
        raise ConfigError(
            f"provider {provider.descriptor.name!r} does not support token matrices"
        )
    if not text or not text.split():
        raise DataError("cannot build a token matrix for empty text")
    matrix = provider.embed_tokens(text)
    if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] != provider.descriptor.dim:
        raise DimensionMismatchError(
            f"token matrix has shape {matrix.shape}, expected (l, {provider.descriptor.dim})"
        )
    return matrix


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------

def http_embed(
    endpoint: str,
    model: str,
    texts: Sequence[str],
    expected_dim: Optional[int] = None,
    timeout: float = DEFAULT_TIMEOUT,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    backoff_base: float = DEFAULT_BACKOFF_BASE,
    backoff_factor: float = DEFAULT_BACKOFF_FACTOR,
    max_batch: int = DEFAULT_MAX_BATCH,
    session: Optional[requests.Session] = None,
) -> list[np.ndarray]:
    """POST one batch to ``{endpoint}/embed`` and validate the response.

    Transport failures (connection errors, timeouts) are retried with
    exponential backoff up to ``max_attempts`` total attempts; protocol errors
    (bad status, malformed JSON, dimension mismatch) are surfaced immediately
    as distinct exception types. ``requests`` is imported here, on first
    use, rather than with the module.
    """
    import requests

    if len(texts) == 0:
        raise DataError("http_embed requires at least one text")
    if len(texts) > max_batch:
        raise ConfigError(f"batch of {len(texts)} exceeds max batch size {max_batch}")
    url = endpoint.rstrip("/") + "/embed"
    body = {"model": model, "texts": list(texts)}
    post = (session or requests).post

    last_exc: Optional[Exception] = None
    response = None
    for attempt in range(1, max_attempts + 1):
        try:
            response = post(url, json=body, timeout=timeout)
            break
        except requests.Timeout as exc:
            last_exc = ProviderTimeoutError(f"embed request to {url} timed out: {exc}")
        except requests.RequestException as exc:
            last_exc = ProviderError(f"embed request to {url} failed: {exc}")
        if attempt < max_attempts:
            delay = backoff_base * backoff_factor ** (attempt - 1)
            logger.warning(
                "embed request attempt %d/%d failed, retrying in %.3fs",
                attempt,
                max_attempts,
                delay,
            )
            time.sleep(delay)
    if response is None:
        assert last_exc is not None
        raise last_exc

    if not 200 <= response.status_code < 300:
        raise ProviderStatusError(
            f"embedding service returned status {response.status_code} for {url}"
        )
    try:
        payload = response.json()
    except ValueError as exc:
        raise ProviderResponseError(f"malformed JSON from {url}: {exc}") from exc

    if not isinstance(payload, dict) or "dim" not in payload or "embeddings" not in payload:
        raise ProviderResponseError(
            f"response from {url} missing 'dim'/'embeddings' fields"
        )
    dim = payload["dim"]
    rows = payload["embeddings"]
    if not isinstance(dim, int) or not isinstance(rows, list):
        raise ProviderResponseError(f"response from {url} has wrong field types")
    if expected_dim is not None and dim != expected_dim:
        raise DimensionMismatchError(
            f"service reports dim {dim}, provider declared {expected_dim}"
        )
    if len(rows) != len(texts):
        raise ProviderResponseError(
            f"service returned {len(rows)} embeddings for {len(texts)} texts"
        )
    out = []
    for i, row in enumerate(rows):
        vec = np.asarray(row, dtype=np.float64)
        if vec.shape != (dim,):
            raise DimensionMismatchError(
                f"embedding {i} has {vec.size} entries, declared dim is {dim}"
            )
        if not np.all(np.isfinite(vec)):
            raise ProviderResponseError(f"embedding {i} contains non-finite values")
        out.append(vec)
    return out
