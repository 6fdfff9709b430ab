"""Chunk scoring against trial criteria, top-k selection, prompt assembly.

One patient's retrieval is a pair of arrays. ``score_chunks`` returns the
``(n_chunks, n_criteria)`` matrix of cosines, rows in chunk order and
columns in criterion order. ``select_top_k`` returns the row indices of the
chosen chunks, best first; a row index is the chunk's position in the list
that was scored, which ``build_chunks`` makes equal to its ordinal.

Relevance of a chunk is the unweighted sum of its cosine similarities to every
criterion (inclusion and exclusion alike; no sign flip). Selection is exact:
chunk counts per patient are small, so there is no approximate index. Equal
chunk vectors get bit-equal scores, so their tie is broken by position: the
lower row goes first.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import Chunk, Criterion
from .errors import ConfigError, DataError

DEFAULT_K_RETRIEVE = 4
PROMPT_SEPARATOR = "\n---\n"
DEFAULT_INSTRUCTIONS = (
    "Review the patient's record excerpts against each eligibility criterion "
    "and assess whether the patient qualifies for the trial."
)


def score_chunks(
    chunks: Sequence[Chunk],
    chunk_vectors: Sequence[np.ndarray],
    criteria: Sequence[Criterion],
    criteria_vectors: Sequence[np.ndarray],
) -> np.ndarray:
    """The ``(n_chunks, n_criteria)`` cosines of every chunk against every
    criterion."""
    if len(criteria) == 0:
        raise DataError("score_chunks requires at least one criterion")
    if len(chunks) != len(chunk_vectors):
        raise DataError(
            f"{len(chunks)} chunks but {len(chunk_vectors)} chunk vectors"
        )
    if len(criteria) != len(criteria_vectors):
        raise DataError(
            f"{len(criteria)} criteria but {len(criteria_vectors)} criterion vectors"
        )
    a = np.asarray(chunk_vectors, dtype=np.float64)
    b = np.asarray(criteria_vectors, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise DataError(
            f"cosine requires equal-length vectors, got {a.shape} and {b.shape}"
        )
    a_norm = np.linalg.norm(a, axis=1)
    b_norm = np.linalg.norm(b, axis=1)
    i, j = int(np.argmin(a_norm)), int(np.argmin(b_norm))
    if a_norm[i] <= 1e-12 or b_norm[j] <= 1e-12:
        raise DataError(
            f"chunk {chunks[i].chunk_id!r} vs criterion {criteria[j].criterion_id!r}: "
            "cosine similarity undefined for zero-norm vector"
        )
    # einsum without ``optimize`` computes every entry by the same loop, so
    # equal rows give bit-equal cosines and their tie goes by position. A
    # BLAS product (``a @ b.T``) blocks rows differently and can round two
    # equal rows apart.
    return np.einsum("ij,kj->ik", a / a_norm[:, None], b / b_norm[:, None])


def select_top_k(cosines: np.ndarray, k: int = DEFAULT_K_RETRIEVE) -> np.ndarray:
    """Row indices of the top min(k, n) chunks by descending sum of
    cosines; ties go to the lower row."""
    if k < 1:
        raise ConfigError("k must be at least 1")
    if len(cosines) == 0:
        raise DataError("no chunks to select from; patient had no retrievable text")
    return np.argsort(-cosines.sum(axis=1), kind="stable")[:k]


def assemble_prompt(
    instructions: str, criteria: Sequence[Criterion], texts: Sequence[str]
) -> str:
    """Deterministic prompt: instructions, tagged criteria, then the
    selected chunk texts in rank order.

    Criteria keep file order with [INCLUSION]/[EXCLUSION] tags; chunks get
    [EHR i/n] tags. Blocks are joined by a fixed separator.
    """
    if len(texts) == 0:
        raise DataError("assemble_prompt requires at least one selected chunk")
    criteria_block = "\n".join(
        f"[{c.kind.upper()}] {c.criterion_id}: {c.text}" for c in criteria
    )
    n = len(texts)
    chunks_block = "\n".join(f"[EHR {i}/{n}] {text}" for i, text in enumerate(texts, 1))
    return PROMPT_SEPARATOR.join([instructions, criteria_block, chunks_block])
