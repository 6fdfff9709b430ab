"""Patient/trial data model, dataset IO, chunking, synthetic corpora, and splits.

Datasets are exchanged as two JSONL files (``patients.jsonl`` and
``trials.jsonl``, UTF-8, LF line endings, one object per line) whose format
is the record types: a ``Trial`` or ``PatientRecord`` line holds its fields
as keys, a record field as an object and a tuple of records as a list of
objects. A field with a default may be left out, a key that names no field
is ignored, and text fields take JSON strings or numbers. All corpus
objects are immutable after load or generation; concurrent reads are safe.

A synthetic corpus is a function of its ``SyntheticConfig`` and of the
public ``np.random.Generator`` calls, made on ``np.random.default_rng(seed)``,
that ``generate_synthetic`` states: a few whole-array draws per trial. A new
``SyntheticConfig`` setting is one more array draw, made only when the setting
is on, so that every existing corpus keeps its bytes.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Iterator, Optional, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, DataError, check_seed, reject_unread

DEFAULT_CHUNK_SIZE = 256
DEFAULT_CHUNK_OVERLAP = 32

MODALITIES = ("structured", "unstructured", "mixed")

@dataclass(frozen=True)
class EligibilityLabel:
    """Binary eligibility outcome plus the original taxonomy term, if any."""

    value: int
    raw_class: Optional[str] = None

    def __post_init__(self) -> None:
        if type(self.value) is not int or self.value not in (0, 1):
            raise DataError(f"label value must be the integer 0 or 1, got {self.value!r}")


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
    label: EligibilityLabel
    notes: tuple[ClinicalNote, ...] = ()
    structured: tuple[StructuredRow, ...] = ()

    def __post_init__(self) -> None:
        if not self.patient_id:
            raise DataError("patient_id must be non-empty")
        if not self.notes and not self.structured:
            raise DataError(
                f"patient {self.patient_id!r} has neither notes nor structured rows"
            )


@dataclass(frozen=True)
class Criterion:
    criterion_id: str
    kind: str  # "inclusion" | "exclusion"
    text: str

    def __post_init__(self) -> None:
        if not self.criterion_id:
            raise DataError("criterion_id must be non-empty")
        if self.kind not in ("inclusion", "exclusion"):
            raise DataError(f"criterion kind must be inclusion/exclusion, got {self.kind!r}")
        if not self.text or self.text.isspace():  # no whitespace-separated token
            raise DataError(f"criterion {self.criterion_id!r} has empty text")


@dataclass(frozen=True)
class Trial:
    trial_id: str
    criteria: tuple[Criterion, ...]

    def __post_init__(self) -> None:
        if not self.trial_id:
            raise DataError("trial_id must be non-empty")
        if not self.criteria:
            raise DataError(f"trial {self.trial_id!r} has no criteria")
        for n, c in enumerate(self.criteria):
            if c.criterion_id in (earlier.criterion_id for earlier in self.criteria[:n]):
                raise DataError(f"trial {self.trial_id!r} has duplicate criterion_id {c.criterion_id!r}")


@dataclass(frozen=True)
class Chunk:
    """A retrievable text unit cut from one patient's record; its id names
    the patient, the note or structured row it was cut from, and its
    position in the patient's chunk list."""

    chunk_id: str
    text: str

    def __post_init__(self) -> None:
        if not self.text:
            raise DataError(f"chunk {self.chunk_id!r} has empty text")


@dataclass(frozen=True)
class SplitSpec:
    """How to carve a dataset into train and test patient-id sets. A
    ``random`` split reads ``test_fraction``; a ``cross_trial`` split reads
    ``target_trial`` and ``exclusion_fraction``. Setting a key that the mode
    does not read is a ``ConfigError``."""

    mode: str = "random"  # "random" | "cross_trial"
    test_fraction: float = 0.2
    target_trial: Optional[str] = None
    exclusion_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("random", "cross_trial"):
            raise ConfigError(f"unknown split mode {self.mode!r}")
        if self.mode == "random":
            unread = ("target_trial", "exclusion_fraction")
        else:
            unread = ("test_fraction",)
        reject_unread(self, unread, f"{self.mode} split")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction must lie in (0, 1)")
        if self.mode == "cross_trial" and not self.target_trial:
            raise ConfigError("cross_trial split requires target_trial")
        if not 0.0 <= self.exclusion_fraction <= 1.0:
            raise ConfigError("exclusion_fraction must lie in [0, 1]")
        check_seed(self.seed, "split")


@dataclass
class Dataset:
    patients: list[PatientRecord]
    trials: list[Trial]
    _trial_index: dict[str, Trial] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # ``load_dataset`` checks ids and trial references, naming file and line.
        self._trial_index = {trial.trial_id: trial for trial in self.trials}

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

_JSON_TYPES = {type(None): "null", bool: "a boolean", list: "an array", dict: "an object"}


@functools.cache
def _layout(cls) -> tuple[tuple[str, str, Optional[type], bool], ...]:
    """``cls``'s fields, its JSONL keys, as (name, kind, record type,
    required) in field order. The kinds are text (``str``), optional text
    (``Optional[str]``), an ``int`` that the record checks, a record (an
    object) and a tuple of records (a list of objects); a field of any other
    type is a ``TypeError``."""
    hints = get_type_hints(cls)
    layout = []
    for f in fields(cls):
        tp, sub = hints[f.name], None
        args = get_args(tp)
        if tp is str:
            kind = "text"
        elif tp == Optional[str]:
            kind = "optional text"
        elif tp is int:
            kind = "int"
        elif is_dataclass(tp):
            kind, sub = "record", tp
        elif get_origin(tp) is tuple and args[1:] == (...,) and is_dataclass(args[0]):
            kind, sub = "records", args[0]
        else:
            raise TypeError(f"{cls.__name__}.{f.name}: no JSONL kind for type {tp!r}")
        layout.append((f.name, kind, sub, f.default is MISSING))
    return tuple(layout)


class _NumberText(str):
    """A JSON number, or a NaN or Infinity, as its line writes it."""

    def number(self) -> int | float:
        """An ``int``, or a ``float`` where Python reads no integer."""
        try:
            return int(self)
        except ValueError:
            return float(self)


def _record(cls, obj: dict):
    """A ``cls`` built from the JSON object ``obj`` by ``_layout``."""
    kwargs = {}
    for name, kind, sub, required in _layout(cls):
        value = obj.get(name, MISSING)
        if value is MISSING:
            if required:
                raise DataError(f"missing required field {name!r}")
            continue
        if sub is None:
            if type(value) is _NumberText:  # text keeps it as written; an int field checks the number
                value = value.number() if kind == "int" else str(value)
            elif type(value) is not str and kind != "int":
                if value is not None or kind == "text":
                    tail = " or a number" if kind == "text" else ", a number or null"
                    got = _JSON_TYPES[type(value)]
                    raise DataError(f"{name!r} must be a string{tail}, got {got}")
        elif kind == "records":
            if type(value) is not list or not all(type(v) is dict for v in value):
                raise DataError(f"{name!r} must be a list of JSON objects")
            value = tuple([_record(sub, v) for v in value])
        elif type(value) is dict:
            value = _record(sub, value)
        else:
            raise DataError(f"{name!r} must be a JSON object")
        kwargs[name] = value
    return cls(**kwargs)


def _read_jsonl(path: Path, cls, id_key: str) -> Iterator[tuple[int, object]]:
    """Yield (line_number, record) pairs as the file is read, every error
    led by ``path:line`` and a repeated ``id_key`` citing both lines; lines
    split as ``load_dataset`` describes."""
    try:
        # Undecodable bytes become lone surrogates, which no valid UTF-8
        # line holds, so the line that has them can be named.
        handle = path.open(encoding="utf-8", errors="surrogateescape", newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    seen: dict[str, int] = {}
    with handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                line.encode("utf-8")
                obj = json.loads(
                    line, parse_int=_NumberText, parse_float=_NumberText, parse_constant=_NumberText
                )
                if not isinstance(obj, dict):
                    raise DataError("expected a JSON object")
                record = _record(cls, obj)
            except UnicodeEncodeError:
                raise DataError(f"{path}:{lineno}: not valid UTF-8") from None
            except json.JSONDecodeError as exc:
                raise DataError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
            except RecursionError:
                raise DataError(f"{path}:{lineno}: invalid JSON: nested too deeply") from None
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
            record_id = getattr(record, id_key)
            if record_id in seen:
                raise DataError(
                    f"duplicate {id_key} {record_id!r} on lines {seen[record_id]} "
                    f"and {lineno} of {path}"
                )
            seen[record_id] = lineno
            yield lineno, record
    if not seen:
        raise DataError(f"{path}: file contains no records")


def load_dataset(patients_path: str | Path, trials_path: str | Path) -> Dataset:
    r"""Load a normalized dataset, checking referential integrity.

    Both files are UTF-8 JSONL, one record per line: a ``Trial`` per trials
    line and a ``PatientRecord`` per patients line. The keys are the record
    fields: a field without a default is required, a record is an object, a
    tuple of records a list of objects, and a key that names no field is
    ignored. A text field takes a string or a number, read as written, an
    integer of any length too (``-0`` is ``"-0"``); ``date``, ``timestamp``
    and ``raw_class`` also take null. Lines may end in ``\n``, ``\r\n`` or
    ``\r``; no other character ends a line, so U+0085, U+2028 and U+2029
    inside a string are read as written. Blank lines are ignored.

    Every error is a DataError naming its file and line: bytes that are not
    UTF-8, invalid JSON, a line that breaks the rules above or its record's
    own checks, a duplicate id (citing both lines) or a dangling trial
    reference; an empty file is named without a line.
    """
    patients_path, trials_path = Path(patients_path), Path(trials_path)
    trials = [trial for _, trial in _read_jsonl(trials_path, Trial, "trial_id")]
    trial_ids = {trial.trial_id for trial in trials}
    patients = []
    for lineno, patient in _read_jsonl(patients_path, PatientRecord, "patient_id"):
        if patient.trial_id not in trial_ids:
            raise DataError(
                f"{patients_path}:{lineno}: patient {patient.patient_id!r} references "
                f"unknown trial {patient.trial_id!r}"
            )
        patients.append(patient)
    return Dataset(patients=patients, trials=trials)


# A record is written as ``vars``, its fields in field order, so the
# written keys are the ones ``_record`` reads; tuples become arrays.
_ENCODER = json.JSONEncoder(ensure_ascii=False, default=vars)


def dataset_to_jsonl(dataset: Dataset) -> tuple[str, str]:
    """Serialize to (patients_jsonl, trials_jsonl) strings with LF endings."""
    patients = "".join(_ENCODER.encode(p) + "\n" for p in dataset.patients)
    trials = "".join(_ENCODER.encode(t) + "\n" for t in dataset.trials)
    return patients, trials


def write_file(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with LF line endings; a path that
    cannot be written is a ``DataError`` that names it."""
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def write_dataset(dataset: Dataset, patients_path: str | Path, trials_path: str | Path) -> None:
    patients, trials = dataset_to_jsonl(dataset)
    Path(patients_path).parent.mkdir(parents=True, exist_ok=True)
    Path(trials_path).parent.mkdir(parents=True, exist_ok=True)
    write_file(patients_path, patients)
    write_file(trials_path, trials)


# ---------------------------------------------------------------------------
# Chunking
# ---------------------------------------------------------------------------

def check_chunking(chunk_size: int, overlap: int) -> None:
    """The chunking rule: a positive size and an overlap in [0, size)."""
    if chunk_size <= 0:
        raise ConfigError("chunk_size must be positive")
    if overlap < 0:
        raise ConfigError("overlap must be non-negative")
    if overlap >= chunk_size:
        raise ConfigError(f"overlap ({overlap}) must be smaller than chunk_size ({chunk_size})")


def chunk_text(
    text: str,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    overlap: int = DEFAULT_CHUNK_OVERLAP,
) -> list[str]:
    """Split whitespace-tokenized text into overlapping windows.

    Consecutive chunks start ``chunk_size - overlap`` tokens apart; the final
    chunk runs to the end of the text even if shorter. Empty text yields an
    empty list. Tokenization is plain whitespace splitting so chunk boundaries
    are provider-agnostic and reproducible. The sizes must pass
    ``check_chunking``.
    """
    check_chunking(chunk_size, overlap)
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

    Each chunk id ends in the chunk's position in the returned list. Note
    chunks come first, then structured-row chunks, both in record order.
    """
    if modality not in MODALITIES:
        raise ConfigError(f"unknown modality {modality!r}; expected one of {MODALITIES}")
    chunks: list[Chunk] = []

    def _add(base_id: str, text: str) -> None:
        for piece in chunk_text(text, chunk_size, overlap):
            chunks.append(Chunk(f"{patient.patient_id}:{base_id}:{len(chunks)}", piece))

    if modality in ("unstructured", "mixed"):
        for i, note in enumerate(patient.notes):
            _add(f"note{i}", note.text)
    if modality in ("structured", "mixed"):
        for i, row in enumerate(patient.structured):
            _add(f"row{i}", row.to_text())
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
        n_pos = _round_half_up(self.positive_fraction * self.patients_per_trial)
        if n_pos in (0, self.patients_per_trial):
            raise ConfigError(
                f"positive_fraction {self.positive_fraction} of {self.patients_per_trial} "
                f"patients per trial rounds to {n_pos} positives; each trial needs both classes"
            )
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
_EXCLUSION_CRITERIA = (
    "enrollment in another interventional study within 30 days",
    "known hypersensitivity to the investigational compound",
)

def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def generate_synthetic(config: SyntheticConfig, seed: int) -> Dataset:
    """Generate a deterministic synthetic dataset.

    Eligible patients' notes and diagnosis rows carry marker tokens that also
    appear in the trial's inclusion criteria, so retrieval and downstream
    classification have real signal to find.

    The bytes are a function of ``config`` and of the public
    ``np.random.Generator`` calls made on ``np.random.default_rng(seed)``.
    Trials are drawn one at a time; with ``P`` patients per trial, ``T``
    tokens per patient (its notes' tokens, then one per diagnosis row) and
    ``D`` dates per patient (one per note, then one per diagnosis row), each
    trial makes these calls in this order:

    - ``permutation(P)`` orders the trial's labels;
    - ``random((P, T))`` makes a token a marker where it falls below the
      patient's marker rate, else background;
    - ``random((P, T))`` takes a token from the trial's pool where it falls
      below ``trial_shift``, else from the shared pool;
    - ``integers(pool sizes)``, with one bound per token, picks its word;
    - ``integers(12, size=(P, D))`` then ``integers(28, size=(P, D))`` give
      each date's month and day;
    - ``integers(50, size=P)`` gives ages (plus 40), and ``random(P) < 0.5``
      makes a patient female.

    A new ``SyntheticConfig`` setting must draw nothing at its default, so
    existing corpora keep their bytes.
    """
    rng = np.random.default_rng(seed)
    P, n_notes, n_tok = config.patients_per_trial, config.notes_per_patient, config.note_tokens
    T, D = n_notes * n_tok + 2, n_notes + 2
    shared_vocab = [f"term{i:04d}" for i in range(config.vocabulary_size)]
    trial_vocab_size = max(8, config.vocabulary_size // 4)
    # Pools in the order marker/trial, marker/shared, background/trial,
    # background/shared, so a token's pool is 2 * background + shared.
    pool_sizes = np.array([3, len(_SHARED_MARKERS), trial_vocab_size, config.vocabulary_size])
    pool_starts = np.concatenate(([0], np.cumsum(pool_sizes)[:-1]))
    n_pos = _round_half_up(config.positive_fraction * P)
    signal_rate = config.signal_strength * (_MAX_MARKER_RATE - _BASE_MARKER_RATE)

    trials: list[Trial] = []
    patients: list[PatientRecord] = []

    for t in range(config.n_trials):
        trial_id = f"SYN{t + 1:03d}"
        trial_markers = [f"t{t:02d}sign{j}" for j in range(3)]
        trial_vocab = [f"t{t:02d}w{i:03d}" for i in range(trial_vocab_size)]
        vocab = np.array(
            trial_markers + list(_SHARED_MARKERS) + trial_vocab + shared_vocab, dtype=object
        )

        criteria = []
        for j in range(3):
            text = (
                f"history of {_SHARED_MARKERS[2 * j]} or {_SHARED_MARKERS[2 * j + 1]} "
                f"with documented {trial_markers[j]} on clinical assessment"
            )
            criteria.append(Criterion(f"{trial_id}-I{j + 1}", "inclusion", text))
        for j, text in enumerate(_EXCLUSION_CRITERIA):
            criteria.append(Criterion(f"{trial_id}-E{j + 1}", "exclusion", text))
        trials.append(Trial(trial_id, tuple(criteria)))

        labels = np.array([1] * n_pos + [0] * (P - n_pos))[rng.permutation(P)]
        marker_rate = _BASE_MARKER_RATE + signal_rate * labels
        background = rng.random((P, T)) >= marker_rate[:, None]
        shared = rng.random((P, T)) >= config.trial_shift
        pool = 2 * background + shared
        words = vocab[pool_starts[pool] + rng.integers(pool_sizes[pool])].tolist()
        months = rng.integers(12, size=(P, D)) + 1
        days = rng.integers(28, size=(P, D)) + 1
        ages = (rng.integers(50, size=P) + 40).tolist()
        female = (rng.random(P) < 0.5).tolist()

        for i, label_value in enumerate(labels.tolist()):
            patient_id = f"{trial_id}-P{i:04d}"
            stamps = [f"2023-{m:02d}-{d:02d}" for m, d in zip(months[i].tolist(), days[i].tolist())]
            notes = [
                ClinicalNote(
                    f"{patient_id}-note{k}",
                    " ".join(words[i][k * n_tok : (k + 1) * n_tok]),
                    stamps[k],
                )
                for k in range(n_notes)
            ]
            rows = [
                StructuredRow("demographic", "age", str(ages[i])),
                StructuredRow("demographic", "sex", "female" if female[i] else "male"),
            ]
            for d, (tok, stamp) in enumerate(zip(words[i][-2:], stamps[-2:])):
                rows.append(StructuredRow("diagnosis", f"condition_{d}", f"{tok} disorder", stamp))

            raw = "eligible" if label_value == 1 else "ineligible"
            patients.append(
                PatientRecord(
                    patient_id=patient_id,
                    trial_id=trial_id,
                    label=EligibilityLabel(label_value, raw),
                    notes=tuple(notes),
                    structured=tuple(rows),
                )
            )

    return Dataset(patients=patients, trials=trials)


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

def make_split(dataset: Dataset, spec: SplitSpec) -> tuple[set[str], set[str]]:
    """Carve the dataset into disjoint (train, test) patient-id sets.

    random mode: stratified-by-label split with ceil(test_fraction * n) test
    patients. Each class starts at the floor of its share, test_fraction x
    its size, and the classes with the largest remainders (ties to label 0)
    take one more each until the total is met, so every class gets the floor
    or the ceil of its share. cross_trial mode: test is the target trial
    minus a retained fraction round((1 - exclusion_fraction) * n_target) that
    moves to train; all other trials train. Deterministic under the spec seed.
    """
    rng = np.random.default_rng(spec.seed)
    all_ids = [p.patient_id for p in dataset.patients]

    if spec.mode == "random":
        groups: dict[int, list[str]] = {0: [], 1: []}
        for p in dataset.patients:
            groups[p.label.value].append(p.patient_id)
        n = len(all_ids)
        target_test = int(math.ceil(spec.test_fraction * n - 1e-9))

        quotas = {}
        fracs = {}
        for label in (0, 1):
            exact = spec.test_fraction * len(groups[label])
            quotas[label] = int(math.floor(exact + 1e-9))
            fracs[label] = exact - quotas[label]
        short = target_test - sum(quotas.values())
        for label in sorted((0, 1), key=lambda l: (-fracs[l], l))[:short]:
            quotas[label] += 1

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
