"""Embedding providers, the deterministic mock embedder, and an HTTP client
for external embedding services.

The standard library's HTTP client (``urllib.request``, ``http.client``) is
loaded on the first HTTP request, so a run on the mock provider never loads it.

Providers expose a uniform surface: their output ``dim`` plus ``embed_texts``
and (the mock only) ``embed_tokens``. A provider's name and kind live in
``harness.ProviderSpec``, the one description of a backend. Every provider
must be deterministic and batch-invariant: the vector for a text is identical
regardless of batch composition.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, ProviderError

logger = logging.getLogger("trialmatch.embedding")

ENDPOINT_ENV_VAR = "TRIALMATCH_EMBED_ENDPOINT"

DEFAULT_MOCK_DIM = 128
# HTTP client settings: texts per request, seconds per request, attempts per
# request, and the retry delay base * factor ** (attempt - 1) in seconds.
HTTP_MAX_BATCH = 64
HTTP_TIMEOUT = 30.0
HTTP_MAX_ATTEMPTS = 3
HTTP_BACKOFF_BASE = 0.5
HTTP_BACKOFF_FACTOR = 2.0
_INITIAL_TABLE_ROWS = 64  # MockProvider token table; doubles when full


def check_dim(dim: int) -> None:
    """Every provider's dimension rule."""
    if dim <= 0:
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
    return MockProvider(dim=dim, seed=seed).embed_text(text)


def check_mock_dim(dim: int) -> None:
    """The mock provider's dimension rule: sequence-axis compression of its
    token matrices needs at least 2 hidden dims."""
    if dim < 2:
        raise ConfigError("mock embedding dim must be at least 2")


class MockProvider:
    """In-process stand-in for a real embedding model.

    Each distinct token is hashed once per instance: its vector becomes a
    row of a growable token table, and a text is encoded by gathering the
    rows of its token ids. The table doubles when full, so a token's id
    and row never change.
    """

    def __init__(self, dim: int = DEFAULT_MOCK_DIM, seed: int = 0):
        check_mock_dim(dim)
        self.dim = dim
        self._seed = seed
        self._ids: dict[str, int] = {}
        self._table = np.empty((_INITIAL_TABLE_ROWS, dim))

    def _rows(self, text: str) -> np.ndarray:
        """The token vectors of ``text``, one row per whitespace token."""
        tokens = text.split()
        if not tokens:
            raise DataError("cannot embed a text with no tokens")
        try:
            found = np.fromiter(map(self._ids.__getitem__, tokens), np.intp, len(tokens))
        except KeyError:
            found = self._add(tokens)
        return self._table.take(found, axis=0)

    def _add(self, tokens: list[str]) -> list[int]:
        ids, table = self._ids, self._table
        for token in tokens:
            if token in ids:
                continue
            row = len(ids)
            if row == table.shape[0]:
                grown = np.empty((2 * row, self.dim))
                grown[:row] = table
                self._table = table = grown
            table[row] = _token_vector(token, self.dim, self._seed)
            ids[token] = row
        return [ids[token] for token in tokens]

    def embed_text(self, text: str) -> np.ndarray:
        # The axis-0 sum adds the rows in token order, as a running sum would.
        acc = self._rows(text).sum(axis=0)
        norm = float(np.linalg.norm(acc))
        if norm < 1e-12:
            raise DataError("token vectors cancelled; cannot normalize embedding")
        return acc / norm

    def embed_texts(self, texts: Sequence[str]) -> list[np.ndarray]:
        return [self.embed_text(t) for t in texts]

    def embed_tokens(self, text: str) -> np.ndarray:
        return self._rows(text)


class HttpProvider:
    """Client-side provider backed by an external embedding service.

    Building one loads no HTTP client; ``urllib.request`` is imported by the
    first ``embed_texts`` call (see ``http_embed``).
    """

    def __init__(self, endpoint: Optional[str], model: str, dim: int):
        check_dim(dim)
        self.dim = dim
        self.endpoint = resolve_endpoint(endpoint)
        self.model = model

    def embed_texts(self, texts: Sequence[str]) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for start in range(0, len(texts), HTTP_MAX_BATCH):
            batch = texts[start : start + HTTP_MAX_BATCH]
            out.extend(http_embed(self.endpoint, self.model, batch, self.dim))
        return out


def resolve_endpoint(configured: Optional[str]) -> str:
    """The TRIALMATCH_EMBED_ENDPOINT env var overrides any configured endpoint."""
    endpoint = os.environ.get(ENDPOINT_ENV_VAR) or configured
    if not endpoint:
        raise ConfigError(
            f"no embedding endpoint configured and {ENDPOINT_ENV_VAR} is unset"
        )
    return endpoint


def embed_texts(provider, texts: Sequence[str]) -> list[np.ndarray]:
    """Embed a batch of non-empty texts through any provider: one ``(dim,)``
    vector per text, which ``http_embed`` checks and the mock cannot miss."""
    if len(texts) == 0:
        raise DataError("embed_texts requires a non-empty list of texts")
    for i, text in enumerate(texts):
        if not text or text.isspace():  # no whitespace-separated token
            raise DataError(f"text at index {i} is empty")
    return provider.embed_texts(list(texts))


def embed_tokens(provider, text: str) -> np.ndarray:
    """Per-token hidden-state matrix (one row per token) for a single text."""
    if not hasattr(provider, "embed_tokens"):
        raise ConfigError(f"{type(provider).__name__} does not support token matrices")
    if not text or text.isspace():
        raise DataError("cannot build a token matrix for empty text")
    return provider.embed_tokens(text)


# ---------------------------------------------------------------------------
# HTTP transport
# ---------------------------------------------------------------------------

def http_embed(
    endpoint: str,
    model: str,
    texts: Sequence[str],
    expected_dim: Optional[int] = None,
) -> list[np.ndarray]:
    """POST one batch to ``{endpoint}/embed`` and validate the response.

    Transport failures (connection errors, timeouts) are retried with
    exponential backoff up to ``HTTP_MAX_ATTEMPTS`` total attempts; protocol
    errors (a non-2xx status, malformed JSON, a row that is not a list of
    JSON numbers, dimension mismatch) are surfaced immediately as one
    ``ProviderError`` with a distinct message. ``urllib.request`` is
    imported here, on first use, rather than with the module.
    """
    import http.client
    import urllib.error
    import urllib.request

    if len(texts) == 0:
        raise DataError("http_embed requires at least one text")
    if len(texts) > HTTP_MAX_BATCH:
        raise ConfigError(f"batch of {len(texts)} exceeds max batch size {HTTP_MAX_BATCH}")
    url = endpoint.rstrip("/") + "/embed"
    data = json.dumps({"model": model, "texts": list(texts)}).encode()
    request = urllib.request.Request(url, data, {"Content-Type": "application/json"})

    last_exc: Optional[Exception] = None
    body = None
    for attempt in range(1, HTTP_MAX_ATTEMPTS + 1):
        try:
            with urllib.request.urlopen(request, timeout=HTTP_TIMEOUT) as response:
                body = response.read()
            break
        except urllib.error.HTTPError as exc:  # urlopen raises every non-2xx status
            raise ProviderError(f"embedding service returned status {exc.code} for {url}") from None
        except (OSError, http.client.HTTPException) as exc:
            # A URLError wraps a timeout on connect; one on reading is raised bare.
            timed_out = isinstance(getattr(exc, "reason", exc), TimeoutError)
            outcome = "timed out" if timed_out else "failed"
            last_exc = ProviderError(f"embed request to {url} {outcome}: {exc}")
        if attempt < HTTP_MAX_ATTEMPTS:
            delay = HTTP_BACKOFF_BASE * HTTP_BACKOFF_FACTOR ** (attempt - 1)
            logger.warning(
                "embed request attempt %d/%d failed, retrying in %.3fs",
                attempt,
                HTTP_MAX_ATTEMPTS,
                delay,
            )
            time.sleep(delay)
    if body is None:
        assert last_exc is not None
        raise last_exc

    try:
        payload = json.loads(body)
    except ValueError as exc:
        raise ProviderError(f"malformed JSON from {url}: {exc}") from exc
    except RecursionError:
        raise ProviderError(f"malformed JSON from {url}: nested too deeply") from None

    if not isinstance(payload, dict) or "dim" not in payload or "embeddings" not in payload:
        raise ProviderError(
            f"response from {url} missing 'dim'/'embeddings' fields"
        )
    dim = payload["dim"]
    rows = payload["embeddings"]
    if type(dim) is not int or not isinstance(rows, list):
        raise ProviderError(f"response from {url} has wrong field types")
    if expected_dim is not None and dim != expected_dim:
        raise ProviderError(
            f"service reports dim {dim}, provider declared {expected_dim}"
        )
    if len(rows) != len(texts):
        raise ProviderError(
            f"service returned {len(rows)} embeddings for {len(texts)} texts"
        )
    out = []
    for i, row in enumerate(rows):
        # Only JSON numbers: numpy would read "1.5" and true as numbers too.
        if not isinstance(row, list) or not all(type(v) in (int, float) for v in row):
            raise ProviderError(f"embedding {i} is not a list of JSON numbers")
        try:
            vec = np.asarray(row, dtype=np.float64)
        except OverflowError:  # an integer past float64's range; 1e400 reads inf
            raise ProviderError(f"embedding {i} contains non-finite values") from None
        if vec.shape != (dim,):
            raise ProviderError(
                f"embedding {i} has {vec.size} entries, declared dim is {dim}"
            )
        if not np.all(np.isfinite(vec)):
            raise ProviderError(f"embedding {i} contains non-finite values")
        out.append(vec)
    return out
