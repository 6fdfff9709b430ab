"""Chunk scoring against trial criteria, top-k selection, prompt assembly.

Relevance of a chunk is the unweighted sum of its cosine similarities to every
criterion (inclusion and exclusion alike; no sign flip). Selection is exact:
chunk counts per patient are small, so there is no approximate index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import Chunk, Criterion
from .errors import ConfigError, DataError, DimensionMismatchError, NoChunksError

DEFAULT_K_RETRIEVE = 4
PROMPT_SEPARATOR = "\n---\n"
DEFAULT_INSTRUCTIONS = (
    "Review the patient's record excerpts against each eligibility criterion "
    "and assess whether the patient qualifies for the trial."
)


@dataclass(frozen=True)
class ScoredChunk:
    chunk_id: str
    ordinal: int
    aggregate_score: float
    per_criterion_scores: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class AssembledPrompt:
    system_instructions: str
    criteria_block: str
    chunks_block: str
    full_text: str


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """a.b / (|a||b|); symmetric and scale-invariant, in [-1, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionMismatchError(
            f"cosine requires equal-length vectors, got {a.shape} and {b.shape}"
        )
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a <= 1e-12 or norm_b <= 1e-12:
        raise DataError("cosine similarity undefined for zero-norm vector")
    return float(np.dot(a, b) / (norm_a * norm_b))


def score_chunks(
    chunks: Sequence[Chunk],
    chunk_vectors: Sequence[np.ndarray],
    criteria: Sequence[Criterion],
    criteria_vectors: Sequence[np.ndarray],
) -> list[ScoredChunk]:
    """Score every chunk as the sum of cosines against every criterion."""
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
    scored = []
    for chunk, vec in zip(chunks, chunk_vectors):
        per: list[tuple[str, float]] = []
        aggregate = 0.0
        for criterion, cvec in zip(criteria, criteria_vectors):
            try:
                cos = cosine_similarity(vec, cvec)
            except DataError as exc:
                raise type(exc)(
                    f"chunk {chunk.chunk_id!r} vs criterion "
                    f"{criterion.criterion_id!r}: {exc}"
                ) from exc
            per.append((criterion.criterion_id, cos))
            aggregate += cos
        scored.append(
            ScoredChunk(
                chunk_id=chunk.chunk_id,
                ordinal=chunk.ordinal,
                aggregate_score=aggregate,
                per_criterion_scores=tuple(per),
            )
        )
    return scored


def select_top_k(scored: Sequence[ScoredChunk], k: int = DEFAULT_K_RETRIEVE) -> list[ScoredChunk]:
    """Top min(k, n) chunks by descending aggregate score, ties by ordinal."""
    if k < 1:
        raise ConfigError("k must be at least 1")
    if len(scored) == 0:
        raise NoChunksError("no chunks to select from; patient had no retrievable text")
    ranked = sorted(scored, key=lambda s: (-s.aggregate_score, s.ordinal))
    return ranked[:k]


def assemble_prompt(
    instructions: str,
    criteria: Sequence[Criterion],
    selected: Sequence[tuple[ScoredChunk, str]],
) -> AssembledPrompt:
    """Deterministic prompt: instructions, tagged criteria, then ranked chunks.

    Criteria keep file order with [INCLUSION]/[EXCLUSION] tags; chunks are
    emitted in descending aggregate-score order with [EHR i/n] tags. Blocks
    are joined by a fixed separator.
    """
    if len(selected) == 0:
        raise DataError("assemble_prompt requires at least one selected chunk")
    criteria_lines = [
        f"[{c.kind.upper()}] {c.criterion_id}: {c.text}" for c in criteria
    ]
    ordered = sorted(selected, key=lambda pair: (-pair[0].aggregate_score, pair[0].ordinal))
    n = len(ordered)
    chunk_lines = [
        f"[EHR {i + 1}/{n}] {text}" for i, (_, text) in enumerate(ordered)
    ]
    criteria_block = "\n".join(criteria_lines)
    chunks_block = "\n".join(chunk_lines)
    full_text = PROMPT_SEPARATOR.join([instructions, criteria_block, chunks_block])
    return AssembledPrompt(
        system_instructions=instructions,
        criteria_block=criteria_block,
        chunks_block=chunks_block,
        full_text=full_text,
    )


def audit_rows(
    patient_id: str,
    scored: Sequence[ScoredChunk],
    selected_ids: set[str],
) -> list[dict]:
    """Flatten per-(chunk, criterion) cosines for the retrieval audit CSV."""
    rows = []
    for chunk in scored:
        for criterion_id, cos in chunk.per_criterion_scores:
            rows.append(
                {
                    "patient_id": patient_id,
                    "chunk_id": chunk.chunk_id,
                    "criterion_id": criterion_id,
                    "cosine": cos,
                    "aggregate": chunk.aggregate_score,
                    "selected": chunk.chunk_id in selected_ids,
                }
            )
    return rows
