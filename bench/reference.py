"""Independent reference for ``trialmatch retrieve``.

Re-reads the JSONL files, re-chunks each record, builds every text vector
from ``trialmatch.embedding.mock_embed`` token vectors and scores chunks
against criteria as one numpy product. The only program code it shares with
the run it checks is ``mock_embed``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from trialmatch.embedding import mock_embed

SCORE_TOLERANCE = 1e-9


def _read_jsonl(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def _windows(text: str, size: int, overlap: int) -> list[list[str]]:
    tokens = text.split()
    out = []
    start = 0
    while tokens:
        out.append(tokens[start : start + size])
        if start + size >= len(tokens):
            break
        start += size - overlap
    return out


def _record_chunks(patient: dict, size: int, overlap: int) -> list[tuple[str, list[str]]]:
    """(chunk_id, tokens) for notes then structured rows, as ``mixed`` modality."""
    pieces: list[tuple[str, str]] = [
        (f"note{i}", note["text"]) for i, note in enumerate(patient["notes"])
    ]
    for i, row in enumerate(patient["structured"]):
        text = f"{row['category']} | {row['field_name']} = {row['value']}"
        if row.get("timestamp"):
            text += f" ({row['timestamp']})"
        pieces.append((f"row{i}", text))
    chunks: list[tuple[str, list[str]]] = []
    for base, text in pieces:
        for window in _windows(text, size, overlap):
            chunks.append((f"{patient['patient_id']}:{base}:{len(chunks)}", window))
    return chunks


def reference_selection(
    patients_path: Path,
    trials_path: Path,
    k: int,
    chunk_size: int,
    overlap: int,
    dim: int,
    seed: int,
) -> dict[str, list[tuple[str, float]]]:
    """patient_id -> top-k [(chunk_id, sum of cosines)], best first."""
    vocabulary: dict[str, int] = {}

    def token_ids(tokens: list[str]) -> list[int]:
        return [vocabulary.setdefault(t, len(vocabulary)) for t in tokens]

    criteria = {
        trial["trial_id"]: [token_ids(c["text"].split()) for c in trial["criteria"]]
        for trial in _read_jsonl(trials_path)
    }
    patients = [
        (p["patient_id"], p["trial_id"], _record_chunks(p, chunk_size, overlap))
        for p in _read_jsonl(patients_path)
    ]
    chunk_tokens = {pid: [token_ids(t) for _, t in chunks] for pid, _, chunks in patients}
    table = np.stack([mock_embed(token, dim, seed) for token in vocabulary])

    def unit_rows(id_lists: list[list[int]]) -> np.ndarray:
        rows = np.stack([table[ids].sum(axis=0) for ids in id_lists])
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    criteria_vectors = {trial_id: unit_rows(ids) for trial_id, ids in criteria.items()}
    out = {}
    for pid, trial_id, chunks in patients:
        scores = (unit_rows(chunk_tokens[pid]) @ criteria_vectors[trial_id].T).sum(axis=1)
        order = sorted(range(len(chunks)), key=lambda i: (-scores[i], i))[:k]
        out[pid] = [(chunks[i][0], float(scores[i])) for i in order]
    return out


def check_selection(payload: dict, reference: dict[str, list[tuple[str, float]]]) -> list[str]:
    """Differences between a ``retrieve --json`` payload and the reference."""
    problems = []
    got = {p["patient_id"]: p for p in payload["patients"]}
    if set(got) != set(reference):
        problems.append(f"patients differ: {len(got)} reported, {len(reference)} expected")
    for pid, expected in reference.items():
        entry = got.get(pid)
        if entry is None:
            continue
        ids = [s["chunk_id"] for s in entry["selected"]]
        if ids != [chunk_id for chunk_id, _ in expected]:
            problems.append(f"{pid}: selected {ids}, expected {[c for c, _ in expected]}")
            continue
        for s, (_, score) in zip(entry["selected"], expected):
            if abs(s["score"] - score) > SCORE_TOLERANCE:
                problems.append(f"{pid}: {s['chunk_id']} score {s['score']!r} != {score!r}")
    return problems

