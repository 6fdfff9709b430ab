"""Patient/trial data model, dataset IO, chunking, synthetic corpora, and splits.

Datasets are exchanged as two JSONL files (``patients.jsonl`` and
``trials.jsonl``, UTF-8, LF line endings, one object per line). All corpus
objects are immutable after load or generation; concurrent reads are safe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError, DataError

DEFAULT_CHUNK_SIZE = 256
DEFAULT_CHUNK_OVERLAP = 32

MODALITIES = ("structured", "unstructured", "mixed")

@dataclass(frozen=True)
class EligibilityLabel:
    """Binary eligibility outcome plus the original taxonomy term, if any."""

    value: int
    raw_class: Optional[str] = None

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise DataError(f"label value must be 0 or 1, got {self.value!r}")


@dataclass(frozen=True)
class ClinicalNote:
    note_id: str
    text: str
    date: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.note_id:
            raise DataError("note_id must be non-empty")


@dataclass(frozen=True)
class StructuredRow:
    category: str
    field_name: str
    value: str
    timestamp: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.category or not self.field_name:
            raise DataError("structured row needs a category and a field_name")

    def to_text(self) -> str:
        """Serialize to the fixed text template used for embedding."""
        base = f"{self.category} | {self.field_name} = {self.value}"
        if self.timestamp:
            return f"{base} ({self.timestamp})"
        return base


@dataclass(frozen=True)
class PatientRecord:
    patient_id: str
    trial_id: str
    notes: tuple[ClinicalNote, ...]
    structured_rows: tuple[StructuredRow, ...]
    label: EligibilityLabel

    def __post_init__(self) -> None:
        if not self.patient_id:
            raise DataError("patient_id must be non-empty")
        if not self.notes and not self.structured_rows:
            raise DataError(
                f"patient {self.patient_id!r} has neither notes nor structured rows"
            )


@dataclass(frozen=True)
class Criterion:
    criterion_id: str
    kind: str  # "inclusion" | "exclusion"
    text: str

    def __post_init__(self) -> None:
        if self.kind not in ("inclusion", "exclusion"):
            raise DataError(f"criterion kind must be inclusion/exclusion, got {self.kind!r}")
        if not self.text:
            raise DataError(f"criterion {self.criterion_id!r} has empty text")


@dataclass(frozen=True)
class Trial:
    trial_id: str
    criteria: tuple[Criterion, ...]

    def __post_init__(self) -> None:
        if not self.criteria:
            raise DataError(f"trial {self.trial_id!r} has no criteria")


@dataclass(frozen=True)
class Chunk:
    """A retrievable text unit cut from one patient's record."""

    chunk_id: str
    patient_id: str
    source: str  # "note" | "structured"
    text: str
    ordinal: int

    def __post_init__(self) -> None:
        if not self.text:
            raise DataError(f"chunk {self.chunk_id!r} has empty text")
        if self.ordinal < 0:
            raise DataError(f"chunk {self.chunk_id!r} has negative ordinal")


@dataclass(frozen=True)
class SplitSpec:
    """How to carve a dataset into train and test patient-id sets."""

    mode: str = "random"  # "random" | "cross_trial"
    test_fraction: float = 0.2
    target_trial: Optional[str] = None
    exclusion_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("random", "cross_trial"):
            raise ConfigError(f"unknown split mode {self.mode!r}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must lie in (0, 1)")
        if self.mode == "cross_trial" and not self.target_trial:
            raise ConfigError("cross_trial split requires target_trial")
        if not 0.0 <= self.exclusion_fraction <= 1.0:
            raise ConfigError("exclusion_fraction must lie in [0, 1]")


@dataclass
class Dataset:
    patients: list[PatientRecord]
    trials: list[Trial]
    _trial_index: dict[str, Trial] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._trial_index = {}
        for trial in self.trials:
            if trial.trial_id in self._trial_index:
                raise DataError(f"duplicate trial_id {trial.trial_id!r}")
            self._trial_index[trial.trial_id] = trial
        for patient in self.patients:
            if patient.trial_id not in self._trial_index:
                raise DataError(
                    f"patient {patient.patient_id!r} references unknown trial "
                    f"{patient.trial_id!r}"
                )

    def trial(self, trial_id: str) -> Trial:
        try:
            return self._trial_index[trial_id]
        except KeyError:
            raise DataError(f"unknown trial {trial_id!r}") from None

    def trial_ids(self) -> list[str]:
        return [t.trial_id for t in self.trials]


# ---------------------------------------------------------------------------
# JSONL IO
# ---------------------------------------------------------------------------

def _iter_jsonl(path: Path) -> Iterator[tuple[int, dict]]:
    """Yield (line_number, object) pairs as the file is read, with
    line-accurate errors; lines split as ``load_dataset`` describes."""
    try:
        # Undecodable bytes become lone surrogates, which no valid UTF-8
        # line holds, so the line that has them can be named.
        handle = path.open(encoding="utf-8", errors="surrogateescape", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    found = False
    with handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise DataError(f"{path}:{lineno}: not valid UTF-8") from None
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object")
            found = True
            yield lineno, obj
    if not found:
        raise DataError(f"{path}: file contains no records")


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise DataError(f"{where}: missing required field {key!r}")
    return obj[key]


def _objects(value, key: str, where: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise DataError(f"{where}: {key!r} must be a list of JSON objects")
    return value


def _parse_trial(obj: dict, where: str) -> Trial:
    criteria = []
    for c in _objects(_require(obj, "criteria", where), "criteria", where):
        criteria.append(
            Criterion(
                criterion_id=str(_require(c, "criterion_id", where)),
                kind=str(_require(c, "kind", where)),
                text=str(_require(c, "text", where)),
            )
        )
    return Trial(trial_id=str(_require(obj, "trial_id", where)), criteria=tuple(criteria))


def _parse_patient(obj: dict, where: str) -> PatientRecord:
    label_obj = _require(obj, "label", where)
    if not isinstance(label_obj, dict):
        raise DataError(f"{where}: 'label' must be a JSON object")
    value = _require(label_obj, "value", where)
    if type(value) is not int or value not in (0, 1):
        raise DataError(f"{where}: label value must be the integer 0 or 1, got {value!r}")
    label = EligibilityLabel(value=value, raw_class=label_obj.get("raw_class"))
    notes = tuple(
        ClinicalNote(
            note_id=str(_require(n, "note_id", where)),
            text=str(_require(n, "text", where)),
            date=n.get("date"),
        )
        for n in _objects(obj.get("notes", []), "notes", where)
    )
    rows = tuple(
        StructuredRow(
            category=str(_require(r, "category", where)),
            field_name=str(_require(r, "field_name", where)),
            value=str(_require(r, "value", where)),
            timestamp=r.get("timestamp"),
        )
        for r in _objects(obj.get("structured", []), "structured", where)
    )
    return PatientRecord(
        patient_id=str(_require(obj, "patient_id", where)),
        trial_id=str(_require(obj, "trial_id", where)),
        notes=notes,
        structured_rows=rows,
        label=label,
    )


def load_dataset(patients_path: str | Path, trials_path: str | Path) -> Dataset:
    r"""Load a normalized dataset, checking referential integrity.

    Both files are UTF-8 JSONL, one object per line, read and parsed line by
    line. Lines may end in ``\n``, ``\r\n`` or ``\r``; no other character
    ends a line, so U+0085, U+2028 and U+2029 inside a string are read as
    written. Blank lines are ignored.

    Raises DataError, with the line number, on bytes that are not UTF-8,
    invalid JSON, a missing field, a label value other than the JSON integer
    0 or 1, or ``criteria``, ``notes`` or ``structured`` that are not lists
    of objects; also on duplicate patient ids (citing both lines), dangling
    trial references, or empty files.
    """
    patients_path = Path(patients_path)
    trials_path = Path(trials_path)

    trials = []
    seen_trials: dict[str, int] = {}
    for lineno, obj in _iter_jsonl(trials_path):
        trial = _parse_trial(obj, f"{trials_path}:{lineno}")
        if trial.trial_id in seen_trials:
            raise DataError(
                f"duplicate trial_id {trial.trial_id!r} on lines "
                f"{seen_trials[trial.trial_id]} and {lineno} of {trials_path}"
            )
        seen_trials[trial.trial_id] = lineno
        trials.append(trial)

    patients = []
    seen_patients: dict[str, int] = {}
    for lineno, obj in _iter_jsonl(patients_path):
        patient = _parse_patient(obj, f"{patients_path}:{lineno}")
        if patient.patient_id in seen_patients:
            raise DataError(
                f"duplicate patient_id {patient.patient_id!r} on lines "
                f"{seen_patients[patient.patient_id]} and {lineno} of {patients_path}"
            )
        seen_patients[patient.patient_id] = lineno
        if patient.trial_id not in seen_trials:
            raise DataError(
                f"{patients_path}:{lineno}: patient {patient.patient_id!r} references "
                f"unknown trial {patient.trial_id!r}"
            )
        patients.append(patient)

    return Dataset(patients=patients, trials=trials)


def _patient_to_obj(patient: PatientRecord) -> dict:
    return {
        "patient_id": patient.patient_id,
        "trial_id": patient.trial_id,
        "label": {"value": patient.label.value, "raw_class": patient.label.raw_class},
        "notes": [
            {"note_id": n.note_id, "text": n.text, "date": n.date} for n in patient.notes
        ],
        "structured": [
            {
                "category": r.category,
                "field_name": r.field_name,
                "value": r.value,
                "timestamp": r.timestamp,
            }
            for r in patient.structured_rows
        ],
    }


def _trial_to_obj(trial: Trial) -> dict:
    return {
        "trial_id": trial.trial_id,
        "criteria": [
            {"criterion_id": c.criterion_id, "kind": c.kind, "text": c.text}
            for c in trial.criteria
        ],
    }


def dataset_to_jsonl(dataset: Dataset) -> tuple[str, str]:
    """Serialize to (patients_jsonl, trials_jsonl) strings with LF endings."""
    patients = "".join(
        json.dumps(_patient_to_obj(p), ensure_ascii=False) + "\n" for p in dataset.patients
    )
    trials = "".join(
        json.dumps(_trial_to_obj(t), ensure_ascii=False) + "\n" for t in dataset.trials
    )
    return patients, trials


def write_dataset(dataset: Dataset, patients_path: str | Path, trials_path: str | Path) -> None:
    patients, trials = dataset_to_jsonl(dataset)
    Path(patients_path).parent.mkdir(parents=True, exist_ok=True)
    Path(trials_path).parent.mkdir(parents=True, exist_ok=True)
    Path(patients_path).write_text(patients, encoding="utf-8", newline="\n")
    Path(trials_path).write_text(trials, encoding="utf-8", newline="\n")


# ---------------------------------------------------------------------------
# Chunking
# ---------------------------------------------------------------------------

def chunk_text(
    text: str,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    overlap: int = DEFAULT_CHUNK_OVERLAP,
) -> list[str]:
    """Split whitespace-tokenized text into overlapping windows.

    Consecutive chunks start ``chunk_size - overlap`` tokens apart; the final
    chunk runs to the end of the text even if shorter. Empty text yields an
    empty list. Tokenization is plain whitespace splitting so chunk boundaries
    are provider-agnostic and reproducible.
    """
    if chunk_size <= 0:
        raise ConfigError("chunk_size must be positive")
    if overlap < 0:
        raise ConfigError("overlap must be non-negative")
    if overlap >= chunk_size:
        raise ConfigError(f"overlap ({overlap}) must be smaller than chunk_size ({chunk_size})")
    tokens = text.split()
    if not tokens:
        return []
    stride = chunk_size - overlap
    chunks = []
    start = 0
    while True:
        end = start + chunk_size
        if end >= len(tokens):
            chunks.append(" ".join(tokens[start:]))
            break
        chunks.append(" ".join(tokens[start:end]))
        start += stride
    return chunks


def build_chunks(
    patient: PatientRecord,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    overlap: int = DEFAULT_CHUNK_OVERLAP,
    modality: str = "mixed",
) -> list[Chunk]:
    """Cut one patient's record into chunks for the requested modality.

    Ordinals are dense (0..n-1) within the returned list. Note chunks come
    first, then structured-row chunks, both in record order.
    """
    if modality not in MODALITIES:
        raise ConfigError(f"unknown modality {modality!r}; expected one of {MODALITIES}")
    chunks: list[Chunk] = []

    def _add(source: str, base_id: str, text: str) -> None:
        for piece in chunk_text(text, chunk_size, overlap):
            chunks.append(
                Chunk(
                    chunk_id=f"{patient.patient_id}:{base_id}:{len(chunks)}",
                    patient_id=patient.patient_id,
                    source=source,
                    text=piece,
                    ordinal=len(chunks),
                )
            )

    if modality in ("unstructured", "mixed"):
        for i, note in enumerate(patient.notes):
            _add("note", f"note{i}", note.text)
    if modality in ("structured", "mixed"):
        for i, row in enumerate(patient.structured_rows):
            _add("structured", f"row{i}", row.to_text())
    return chunks


# ---------------------------------------------------------------------------
# Synthetic corpora
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the desk-scale synthetic corpus generator.

    ``signal_strength`` scales how much more often eligible patients emit
    marker tokens than ineligible ones; at 0 the marker rate is identical for
    both classes. ``trial_shift`` is the probability that any marker or
    background token is drawn from a trial-specific pool instead of the shared
    one, making trials distributionally distinct.
    """

    n_trials: int = 5
    patients_per_trial: int = 100
    positive_fraction: float = 0.3
    signal_strength: float = 0.9
    trial_shift: float = 0.3
    vocabulary_size: int = 400
    notes_per_patient: int = 2
    note_tokens: int = 150

    def __post_init__(self) -> None:
        if self.n_trials <= 0 or self.patients_per_trial <= 0:
            raise ConfigError("n_trials and patients_per_trial must be positive")
        if not 0.0 < self.positive_fraction < 1.0:
            raise ConfigError("positive_fraction must lie in (0, 1)")
        if not 0.0 <= self.signal_strength <= 1.0:
            raise ConfigError("signal_strength must lie in [0, 1]")
        if not 0.0 <= self.trial_shift <= 1.0:
            raise ConfigError("trial_shift must lie in [0, 1]")
        if self.vocabulary_size <= 0:
            raise ConfigError("vocabulary_size must be positive")
        if self.notes_per_patient <= 0 or self.note_tokens <= 0:
            raise ConfigError("notes_per_patient and note_tokens must be positive")


_BASE_MARKER_RATE = 0.05
_MAX_MARKER_RATE = 0.5
_SHARED_MARKERS = tuple(f"finding{j:02d}" for j in range(6))


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def generate_synthetic(config: SyntheticConfig, seed: int) -> Dataset:
    """Generate a deterministic synthetic dataset.

    Eligible patients' notes and diagnosis rows carry marker tokens that also
    appear in the trial's inclusion criteria, so retrieval and downstream
    classification have real signal to find. Identical (config, seed) pairs
    produce byte-identical serialized datasets.
    """
    rng = np.random.default_rng(seed)
    shared_vocab = [f"term{i:04d}" for i in range(config.vocabulary_size)]
    trial_vocab_size = max(8, config.vocabulary_size // 4)

    trials: list[Trial] = []
    patients: list[PatientRecord] = []

    for t in range(config.n_trials):
        trial_id = f"SYN{t + 1:03d}"
        trial_vocab = [f"t{t:02d}w{i:03d}" for i in range(trial_vocab_size)]
        trial_markers = [f"t{t:02d}sign{j}" for j in range(3)]

        criteria = []
        for j in range(3):
            text = (
                f"history of {_SHARED_MARKERS[2 * j]} or {_SHARED_MARKERS[2 * j + 1]} "
                f"with documented {trial_markers[j]} on clinical assessment"
            )
            criteria.append(Criterion(f"{trial_id}-I{j + 1}", "inclusion", text))
        criteria.append(
            Criterion(
                f"{trial_id}-E1",
                "exclusion",
                "enrollment in another interventional study within 30 days",
            )
        )
        criteria.append(
            Criterion(
                f"{trial_id}-E2",
                "exclusion",
                "known hypersensitivity to the investigational compound",
            )
        )
        trials.append(Trial(trial_id, tuple(criteria)))

        n_pos = _round_half_up(config.positive_fraction * config.patients_per_trial)
        labels = np.array([1] * n_pos + [0] * (config.patients_per_trial - n_pos))
        labels = labels[rng.permutation(config.patients_per_trial)]

        def _signal_token(marker_rate: float) -> str:
            if rng.random() < marker_rate:
                pool = trial_markers if rng.random() < config.trial_shift else list(_SHARED_MARKERS)
            else:
                pool = trial_vocab if rng.random() < config.trial_shift else shared_vocab
            return pool[int(rng.integers(len(pool)))]

        for i in range(config.patients_per_trial):
            label_value = int(labels[i])
            patient_id = f"{trial_id}-P{i:04d}"
            marker_rate = _BASE_MARKER_RATE + (
                config.signal_strength * (_MAX_MARKER_RATE - _BASE_MARKER_RATE)
                if label_value == 1
                else 0.0
            )

            notes = []
            for k in range(config.notes_per_patient):
                tokens = [_signal_token(marker_rate) for _ in range(config.note_tokens)]
                date = f"2023-{int(rng.integers(1, 13)):02d}-{int(rng.integers(1, 29)):02d}"
                notes.append(ClinicalNote(f"{patient_id}-note{k}", " ".join(tokens), date))

            rows = [
                StructuredRow("demographic", "age", str(int(rng.integers(40, 90)))),
                StructuredRow("demographic", "sex", "female" if rng.random() < 0.5 else "male"),
            ]
            for d in range(2):
                tok = _signal_token(marker_rate)
                stamp = f"2023-{int(rng.integers(1, 13)):02d}-{int(rng.integers(1, 29)):02d}"
                rows.append(StructuredRow("diagnosis", f"condition_{d}", f"{tok} disorder", stamp))

            raw = "eligible" if label_value == 1 else "ineligible"
            patients.append(
                PatientRecord(
                    patient_id=patient_id,
                    trial_id=trial_id,
                    notes=tuple(notes),
                    structured_rows=tuple(rows),
                    label=EligibilityLabel(label_value, raw),
                )
            )

    return Dataset(patients=patients, trials=trials)


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def make_split(dataset: Dataset, spec: SplitSpec) -> tuple[set[str], set[str]]:
    """Carve the dataset into disjoint (train, test) patient-id sets.

    random mode: stratified-by-label split with ceil(test_fraction * n) test
    patients. cross_trial mode: test is the target trial minus a retained
    fraction round((1 - exclusion_fraction) * n_target) that moves to train;
    all other trials train. Deterministic under the spec seed.
    """
    rng = np.random.default_rng(spec.seed)
    all_ids = [p.patient_id for p in dataset.patients]

    if spec.mode == "random":
        groups: dict[int, list[str]] = {0: [], 1: []}
        for p in dataset.patients:
            groups[p.label.value].append(p.patient_id)
        n = len(all_ids)
        target_test = int(math.ceil(spec.test_fraction * n - 1e-9))

        # Largest-remainder allocation keeps per-class test counts proportional
        # while hitting the ceil(total) contract exactly.
        quotas = {}
        fracs = {}
        for label in (0, 1):
            exact = spec.test_fraction * len(groups[label])
            quotas[label] = int(math.floor(exact + 1e-9))
            fracs[label] = exact - quotas[label]
        short = target_test - sum(quotas.values())
        for label in sorted((0, 1), key=lambda l: (-fracs[l], l)):
            while short > 0 and quotas[label] < len(groups[label]):
                quotas[label] += 1
                short -= 1

        test: set[str] = set()
        for label in (0, 1):
            ids = groups[label]
            perm = rng.permutation(len(ids))
            test.update(ids[i] for i in perm[: quotas[label]])
        train = set(all_ids) - test
    else:
        if spec.target_trial not in {t.trial_id for t in dataset.trials}:
            raise DataError(f"target trial {spec.target_trial!r} not present in dataset")
        target_ids = [p.patient_id for p in dataset.patients if p.trial_id == spec.target_trial]
        other_ids = [p.patient_id for p in dataset.patients if p.trial_id != spec.target_trial]
        retained_count = _round_half_up((1.0 - spec.exclusion_fraction) * len(target_ids))
        perm = rng.permutation(len(target_ids))
        retained = {target_ids[i] for i in perm[:retained_count]}
        train = set(other_ids) | retained
        test = set(target_ids) - retained

    if not train or not test:
        raise DataError(
            f"split leaves an empty side (train={len(train)}, test={len(test)})"
        )
    return train, test
