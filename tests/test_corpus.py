import datetime
import hashlib
import math
import re
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_patient, tiny_trial, write_jsonl
from trialmatch import corpus
from trialmatch.corpus import (
    ClinicalNote,
    Criterion,
    Dataset,
    EligibilityLabel,
    PatientRecord,
    SplitSpec,
    StructuredRow,
    SyntheticConfig,
    Trial,
    build_chunks,
    chunk_text,
    dataset_to_jsonl,
    generate_synthetic,
    load_dataset,
    make_split,
    write_dataset,
)
from trialmatch.errors import ConfigError, DataError


# ---------------------------------------------------------------------------
# load_dataset
# ---------------------------------------------------------------------------

class TestLoadDataset:
    def test_round_trip(self, dataset_files):
        dataset = load_dataset(*dataset_files)
        assert len(dataset.patients) == 2
        assert len(dataset.trials) == 1
        assert dataset.patients[0].patient_id == "P1"
        assert dataset.trials[0].criteria[0].kind == "inclusion"

    def test_dangling_trial_reference(self, tmp_path):
        trials = write_jsonl(
            tmp_path / "t.jsonl",
            [
                {
                    "trial_id": "NCT001",
                    "criteria": [
                        {"criterion_id": "c1", "kind": "inclusion", "text": "fever"}
                    ],
                }
            ],
        )
        patients = write_jsonl(
            tmp_path / "p.jsonl",
            [
                {
                    "patient_id": "P1",
                    "trial_id": "NCT999",
                    "label": {"value": 1, "raw_class": None},
                    "notes": [{"note_id": "n", "text": "x", "date": None}],
                    "structured": [],
                }
            ],
        )
        with pytest.raises(DataError, match="NCT999"):
            load_dataset(patients, trials)

    def test_duplicate_patient_cites_both_lines(self, tmp_path):
        trials = write_jsonl(
            tmp_path / "t.jsonl",
            [
                {
                    "trial_id": "NCT001",
                    "criteria": [
                        {"criterion_id": "c1", "kind": "inclusion", "text": "fever"}
                    ],
                }
            ],
        )
        one = {
            "patient_id": "P1",
            "trial_id": "NCT001",
            "label": {"value": 1, "raw_class": None},
            "notes": [{"note_id": "n", "text": "x", "date": None}],
            "structured": [],
        }
        filler = [dict(one, patient_id=f"F{i}") for i in range(1)]
        rows = [one, *filler, dict(one)]  # duplicate on lines 1 and 3
        patients = write_jsonl(tmp_path / "p.jsonl", rows)
        with pytest.raises(DataError, match=r"lines 1 and 3"):
            load_dataset(patients, trials)

    def test_duplicate_trial_cites_both_lines(self, tmp_path):
        trial = {
            "trial_id": "NCT001",
            "criteria": [{"criterion_id": "c1", "kind": "inclusion", "text": "fever"}],
        }
        trials = write_jsonl(
            tmp_path / "t.jsonl", [trial, dict(trial, trial_id="NCT002"), dict(trial)]
        )
        patients = write_jsonl(
            tmp_path / "p.jsonl",
            [
                {
                    "patient_id": "P1",
                    "trial_id": "NCT001",
                    "label": {"value": 1, "raw_class": None},
                    "notes": [{"note_id": "n", "text": "x", "date": None}],
                    "structured": [],
                }
            ],
        )
        message = f"duplicate trial_id 'NCT001' on lines 1 and 3 of {trials}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_dataset(patients, trials)

    def test_dataset_built_in_code_fails_at_an_unknown_trial(self):
        # Only load_dataset checks references, naming file and line; a dataset
        # built in code fails when its patient's trial is looked up.
        dataset = Dataset(patients=[tiny_patient("P1", trial_id="NCT999")], trials=[tiny_trial()])
        with pytest.raises(DataError, match="^unknown trial 'NCT999'$"):
            dataset.trial(dataset.patients[0].trial_id)

    def test_empty_file(self, tmp_path):
        trials = write_jsonl(
            tmp_path / "t.jsonl",
            [
                {
                    "trial_id": "NCT001",
                    "criteria": [
                        {"criterion_id": "c1", "kind": "inclusion", "text": "fever"}
                    ],
                }
            ],
        )
        empty = tmp_path / "p.jsonl"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="no records"):
            load_dataset(empty, trials)

    def test_parse_error_has_line_number(self, tmp_path):
        trials = tmp_path / "t.jsonl"
        trials.write_text('{"trial_id": "NCT001", "criteria": [\n', encoding="utf-8")
        patients = tmp_path / "p.jsonl"
        patients.write_text("{}\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"t\.jsonl:1"):
            load_dataset(patients, trials)

    # json.dumps(..., ensure_ascii=False) writes these raw; str.splitlines()
    # would end a line at each of them.
    UNICODE_BREAKS = ["\x85", "\u2028", "\u2029"]

    @pytest.mark.parametrize("char", UNICODE_BREAKS, ids=["NEL", "LS", "PS"])
    def test_round_trip_keeps_unicode_line_breaks_in_text(self, tmp_path, char):
        text = f"fever{char}and chills"
        dataset = Dataset(
            patients=[tiny_patient("P1", text=text), tiny_patient("P2", label=0)],
            trials=[tiny_trial()],
        )
        patients, trials = tmp_path / "p.jsonl", tmp_path / "t.jsonl"
        write_dataset(dataset, patients, trials)
        assert char in patients.read_text(encoding="utf-8")
        loaded = load_dataset(patients, trials)
        assert loaded.patients == dataset.patients

    @pytest.mark.parametrize("char", UNICODE_BREAKS, ids=["NEL", "LS", "PS"])
    def test_line_number_counts_past_unicode_line_breaks(self, tmp_path, char):
        patients, trials = tmp_path / "p.jsonl", tmp_path / "t.jsonl"
        write_dataset(
            Dataset(patients=[tiny_patient("P1", text=f"a{char}b")], trials=[tiny_trial()]),
            patients,
            trials,
        )
        with patients.open("a", encoding="utf-8") as handle:
            handle.write("not json\n")
        with pytest.raises(DataError, match=r"p\.jsonl:2: invalid JSON"):
            load_dataset(patients, trials)

    @pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_crlf_and_cr_line_endings(self, tmp_path, ending):
        dataset = Dataset(
            patients=[tiny_patient("P1"), tiny_patient("P2", label=0)],
            trials=[tiny_trial()],
        )
        patients_text, trials_text = dataset_to_jsonl(dataset)
        patients, trials = tmp_path / "p.jsonl", tmp_path / "t.jsonl"
        patients.write_bytes(patients_text.replace("\n", ending).encode("utf-8"))
        trials.write_bytes(trials_text.replace("\n", ending).encode("utf-8"))
        assert load_dataset(patients, trials).patients == dataset.patients
        with patients.open("ab") as handle:
            handle.write(f"{ending}[]{ending}".encode("utf-8"))
        # Line 3 is blank and skipped; line 4 holds the array.
        with pytest.raises(DataError, match=r"p\.jsonl:4: expected a JSON object"):
            load_dataset(patients, trials)


class TestRecordCodec:
    """The JSONL format is the record types: ``corpus._layout`` reads each
    record's fields and ``vars`` writes them."""

    def test_minimal_records_with_unknown_keys_round_trip(self, tmp_path):
        criterion = {"criterion_id": "c1", "kind": "inclusion", "text": "fever", "weight": 2}
        trials = write_jsonl(
            tmp_path / "t.jsonl", [{"trial_id": "T1", "criteria": [criterion], "phase": "II"}]
        )
        patients = write_jsonl(
            tmp_path / "p.jsonl",
            [
                {
                    "patient_id": "P1",
                    "trial_id": "T1",
                    "label": {"value": 1, "source": "chart"},
                    "notes": [{"note_id": "n1", "text": "fever", "author": "x"}],
                    "site": 3,
                },
                {
                    "patient_id": 2,
                    "trial_id": "T1",
                    "label": {"value": 0},
                    "structured": [{"category": "lab", "field_name": "hb", "value": 13.5}],
                },
            ],
        )
        first = load_dataset(patients, trials)
        assert first.trials == [Trial("T1", (Criterion("c1", "inclusion", "fever"),))]
        assert first.patients == [
            PatientRecord("P1", "T1", EligibilityLabel(1), notes=(ClinicalNote("n1", "fever"),)),
            PatientRecord(
                "2", "T1", EligibilityLabel(0), structured=(StructuredRow("lab", "hb", "13.5"),)
            ),
        ]
        again = tmp_path / "p2.jsonl", tmp_path / "t2.jsonl"
        write_dataset(first, *again)
        second = load_dataset(*again)
        assert (second.patients, second.trials) == (first.patients, first.trials)

    @pytest.mark.parametrize("written", ["13.50", "1.0", "1e400", "-0.0", "NaN"])
    def test_a_number_in_a_text_field_reads_as_written(self, tmp_path, written):
        criterion = {"criterion_id": "c1", "kind": "inclusion", "text": "fever"}
        trials = write_jsonl(tmp_path / "t.jsonl", [{"trial_id": "T1", "criteria": [criterion]}])
        patients = tmp_path / "p.jsonl"
        patients.write_text(
            '{"patient_id": "P1", "trial_id": "T1", "label": {"value": 1}, "structured": '
            f'[{{"category": "lab", "field_name": "hb", "value": {written}}}]}}\n',
            encoding="utf-8",
        )
        (patient,) = load_dataset(patients, trials).patients
        assert patient.structured == (StructuredRow("lab", "hb", written),)
        assert type(patient.structured[0].value) is str

    def test_record_fields_are_kinds_the_codec_handles(self):
        def walk(record) -> None:
            cls = type(record)
            # The writer's default=vars relies on this order.
            assert list(vars(record)) == [f.name for f in fields(cls)], cls.__name__
            # _layout raises a TypeError on a field of any other type.
            for name, kind, _, _ in corpus._layout(cls):
                value = getattr(record, name)
                if kind == "int":
                    for bad in (True, "1", 1.0):
                        with pytest.raises(DataError):
                            replace(record, **{name: bad})
                elif kind == "record":
                    walk(value)
                elif kind == "records":
                    assert value, f"{cls.__name__}.{name} is empty, so its type goes unchecked"
                    for item in value:
                        walk(item)

        walk(tiny_trial())
        walk(tiny_patient("P1"))

    def test_a_field_of_another_type_is_rejected(self):
        @dataclass(frozen=True)
        class Scored:
            score: float

        with pytest.raises(TypeError, match="^Scored.score: "):
            corpus._layout(Scored)


# ---------------------------------------------------------------------------
# chunk_text
# ---------------------------------------------------------------------------

class TestChunkText:
    def test_stride_windows(self):
        tokens = [f"w{i}" for i in range(10)]
        chunks = chunk_text(" ".join(tokens), chunk_size=4, overlap=1)
        assert chunks == [
            "w0 w1 w2 w3",
            "w3 w4 w5 w6",
            "w6 w7 w8 w9",
        ]

    def test_short_input_single_chunk(self):
        assert chunk_text("a b c", chunk_size=8, overlap=2) == ["a b c"]

    def test_empty_string(self):
        assert chunk_text("", chunk_size=4, overlap=1) == []

    def test_overlap_must_be_smaller(self):
        with pytest.raises(ConfigError):
            chunk_text("a b c", chunk_size=4, overlap=4)
        with pytest.raises(ConfigError):
            chunk_text("a b c", chunk_size=4, overlap=9)

    @settings(max_examples=60, deadline=None)
    @given(
        n_tokens=st.integers(min_value=0, max_value=200),
        chunk_size=st.integers(min_value=1, max_value=40),
        overlap=st.integers(min_value=0, max_value=39),
    )
    def test_coverage_and_deoverlap(self, n_tokens, chunk_size, overlap):
        if overlap >= chunk_size:
            overlap = chunk_size - 1
        tokens = [f"t{i}" for i in range(n_tokens)]
        chunks = chunk_text(" ".join(tokens), chunk_size, overlap)
        if n_tokens == 0:
            assert chunks == []
            return
        pieces = [c.split() for c in chunks]
        rebuilt = list(pieces[0])
        for piece in pieces[1:]:
            rebuilt.extend(piece[overlap:])
        assert rebuilt == tokens
        covered = set()
        for piece in pieces:
            covered.update(piece)
        assert covered == set(tokens)


# ---------------------------------------------------------------------------
# build_chunks / structured serialization
# ---------------------------------------------------------------------------

class TestBuildChunks:
    def test_structured_row_template(self):
        row = StructuredRow("diagnosis", "condition", "fever", "2023-01-02")
        assert row.to_text() == "diagnosis | condition = fever (2023-01-02)"
        bare = StructuredRow("diagnosis", "condition", "fever", None)
        assert bare.to_text() == "diagnosis | condition = fever"

    def test_modality_filtering(self):
        patient = tiny_patient("P1")
        mixed = build_chunks(patient, 16, 2, "mixed")
        notes_only = build_chunks(patient, 16, 2, "unstructured")
        rows_only = build_chunks(patient, 16, 2, "structured")
        # A chunk id names the note or structured row the chunk was cut from.
        assert {c.chunk_id.split(":")[1][:4] for c in notes_only} == {"note"}
        assert {c.chunk_id.split(":")[1][:3] for c in rows_only} == {"row"}
        assert [c.text for c in mixed] == [c.text for c in notes_only + rows_only]

    def test_chunk_ids_end_in_their_position(self):
        patient = tiny_patient("P1")
        for modality in ("mixed", "structured", "unstructured"):
            chunks = build_chunks(patient, 4, 1, modality)
            assert len(chunks) > 1
            for i, chunk in enumerate(chunks):
                assert chunk.chunk_id.endswith(f":{i}")

    def test_empty_note_yields_no_chunks(self):
        patient = tiny_patient("P1", text="x")
        # Empty text in one source is fine as long as other chunks exist.
        chunks = build_chunks(patient, 16, 2, "unstructured")
        assert len(chunks) == 1


# ---------------------------------------------------------------------------
# generate_synthetic
# ---------------------------------------------------------------------------

class TestGenerateSynthetic:
    def test_deterministic_bytes(self):
        config = SyntheticConfig(n_trials=2, patients_per_trial=50)
        first = dataset_to_jsonl(generate_synthetic(config, 7))
        second = dataset_to_jsonl(generate_synthetic(config, 7))
        assert first == second

    def test_positive_count_rounding(self):
        config = SyntheticConfig(n_trials=1, patients_per_trial=100, positive_fraction=0.3)
        dataset = generate_synthetic(config, 3)
        assert sum(p.label.value for p in dataset.patients) == 30

    def test_different_seeds_differ(self):
        config = SyntheticConfig(n_trials=1, patients_per_trial=20)
        a = dataset_to_jsonl(generate_synthetic(config, 1))
        b = dataset_to_jsonl(generate_synthetic(config, 2))
        assert a != b

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(positive_fraction=1.5)
        with pytest.raises(ConfigError):
            SyntheticConfig(n_trials=0)
        with pytest.raises(ConfigError):
            SyntheticConfig(signal_strength=1.2)
        with pytest.raises(ConfigError, match="^vocabulary_size must be positive$"):
            SyntheticConfig(vocabulary_size=0)

    def test_one_word_vocabulary_generates(self):
        config = SyntheticConfig(n_trials=2, patients_per_trial=20, vocabulary_size=1)
        tokens = [tok for p in generate_synthetic(config, 1).patients for tok in _note_tokens(p)]
        assert {tok for tok in tokens if tok.startswith("term")} == {"term0000"}

    @pytest.mark.parametrize("fraction, positives", [(0.1, 0), (0.9, 3)])
    def test_one_class_trial_is_rejected(self, fraction, positives):
        with pytest.raises(ConfigError, match=f"rounds to {positives} positives"):
            SyntheticConfig(n_trials=1, patients_per_trial=3, positive_fraction=fraction)

    def test_round_trip_through_files(self, tmp_path):
        config = SyntheticConfig(n_trials=2, patients_per_trial=10)
        dataset = generate_synthetic(config, 5)
        write_dataset(dataset, tmp_path / "p.jsonl", tmp_path / "t.jsonl")
        loaded = load_dataset(tmp_path / "p.jsonl", tmp_path / "t.jsonl")
        assert dataset_to_jsonl(loaded) == dataset_to_jsonl(dataset)


def scalar_generate_synthetic(config: SyntheticConfig, seed: int) -> Dataset:
    """Reference for ``generate_synthetic``: the same draws, made with one
    ``Generator.random()`` or ``Generator.integers(n)`` call per value
    (``TestPcg64Stream`` checks that the array calls read the same stream),
    and each token's pool and word, each date and each demographic value
    read one at a time."""
    rng = np.random.default_rng(seed)
    n_patients, n_notes = config.patients_per_trial, config.notes_per_patient
    n_tok = config.note_tokens
    n_tokens, n_dates = n_notes * n_tok + 2, n_notes + 2
    shared_markers = [f"finding{j:02d}" for j in range(6)]
    shared_vocab = [f"term{i:04d}" for i in range(config.vocabulary_size)]
    trial_vocab_size = max(8, config.vocabulary_size // 4)
    trials, patients = [], []
    for t in range(config.n_trials):
        trial_id = f"SYN{t + 1:03d}"
        trial_vocab = [f"t{t:02d}w{i:03d}" for i in range(trial_vocab_size)]
        trial_markers = [f"t{t:02d}sign{j}" for j in range(3)]
        criteria = [
            Criterion(
                f"{trial_id}-I{j + 1}",
                "inclusion",
                f"history of {shared_markers[2 * j]} or {shared_markers[2 * j + 1]} "
                f"with documented {trial_markers[j]} on clinical assessment",
            )
            for j in range(3)
        ]
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

        n_pos = int(math.floor(config.positive_fraction * n_patients + 0.5))
        labels = np.array([1] * n_pos + [0] * (n_patients - n_pos))
        labels = labels[rng.permutation(n_patients)].tolist()
        marker_draws = [[rng.random() for _ in range(n_tokens)] for _ in range(n_patients)]
        trial_draws = [[rng.random() for _ in range(n_tokens)] for _ in range(n_patients)]
        pools = [[None] * n_tokens for _ in range(n_patients)]
        for i in range(n_patients):
            marker_rate = 0.05 + (config.signal_strength * 0.45 if labels[i] == 1 else 0.0)
            for j in range(n_tokens):
                if marker_draws[i][j] < marker_rate:
                    trial_pool, shared_pool = trial_markers, shared_markers
                else:
                    trial_pool, shared_pool = trial_vocab, shared_vocab
                pools[i][j] = trial_pool if trial_draws[i][j] < config.trial_shift else shared_pool
        picks = [[int(rng.integers(len(pool))) for pool in row] for row in pools]
        months = [[int(rng.integers(12)) for _ in range(n_dates)] for _ in range(n_patients)]
        days = [[int(rng.integers(28)) for _ in range(n_dates)] for _ in range(n_patients)]
        ages = [int(rng.integers(50)) for _ in range(n_patients)]
        female = [rng.random() for _ in range(n_patients)]

        for i in range(n_patients):
            label_value = labels[i]
            patient_id = f"{trial_id}-P{i:04d}"
            words = [pools[i][j][picks[i][j]] for j in range(n_tokens)]
            dates = [f"2023-{months[i][d] + 1:02d}-{days[i][d] + 1:02d}" for d in range(n_dates)]
            notes = [
                ClinicalNote(
                    f"{patient_id}-note{k}", " ".join(words[k * n_tok : (k + 1) * n_tok]), dates[k]
                )
                for k in range(n_notes)
            ]
            rows = [
                StructuredRow("demographic", "age", str(ages[i] + 40)),
                StructuredRow("demographic", "sex", "female" if female[i] < 0.5 else "male"),
            ]
            for d in range(2):
                token, date = words[n_notes * n_tok + d], dates[n_notes + d]
                rows.append(StructuredRow("diagnosis", f"condition_{d}", f"{token} disorder", date))
            raw = "eligible" if label_value == 1 else "ineligible"
            patients.append(
                PatientRecord(
                    patient_id, trial_id, EligibilityLabel(label_value, raw), tuple(notes), tuple(rows)
                )
            )
    return Dataset(patients=patients, trials=trials)


HARD_CORPUS = SyntheticConfig(n_trials=5, patients_per_trial=100, signal_strength=0.15)


class _CountingGenerator:
    """A ``Generator`` that records the name of each method called on it."""

    def __init__(self, rng: np.random.Generator, calls: list):
        self._rng, self._calls = rng, calls

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def call(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)

        return call


class TestSyntheticBytes:
    # sha256 of the patients then the trials JSONL, recorded from the
    # generator that draws each trial's values as whole arrays.
    PINS = [
        (HARD_CORPUS, 1, "8f96033ae7a739357d21ab003567c8ac6332844b063e52908d94d5cee4dd1e89"),
        (HARD_CORPUS, 2, "81bdef8edf732bcd19c7a89f0c30f5f678e1cbba9cfc103334efe3ea733a349a"),
        (SyntheticConfig(), 0, "93df4f1dcd9c1afa41549f865042f37cf3343b4a7b7f0e79bf08dc61cae06ab9"),
    ]

    @pytest.mark.parametrize("config, seed, digest", PINS)
    def test_corpus_matches_recorded_digest(self, config, seed, digest):
        patients, trials = dataset_to_jsonl(generate_synthetic(config, seed))
        assert hashlib.sha256((patients + trials).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "config, seed",
        [*((HARD_CORPUS, seed) for seed in (1, 2, 3)), (SyntheticConfig(vocabulary_size=1), 1)],
    )
    def test_draws_are_placed_in_bulk(self, monkeypatch, config, seed):
        # Eight Generator calls a trial, whatever its patient and token
        # counts: a schedule that draws per patient or per value fails this,
        # not only the benchmark's timing.
        calls = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda s: _CountingGenerator(default_rng(s), calls)
        )
        generate_synthetic(config, seed)
        per_trial = ["permutation", "random", "random"] + ["integers"] * 4 + ["random"]
        assert calls == per_trial * config.n_trials

    @pytest.mark.parametrize(
        "config, seed",
        [
            (SyntheticConfig(n_trials=2, patients_per_trial=15), 3),
            (
                SyntheticConfig(
                    n_trials=3,
                    patients_per_trial=12,
                    notes_per_patient=3,
                    note_tokens=5,
                    vocabulary_size=9,
                    trial_shift=0.7,
                ),
                11,
            ),
            (SyntheticConfig(n_trials=2, patients_per_trial=10, signal_strength=1.0), 8),
            # The smallest shared pool.
            (
                SyntheticConfig(
                    n_trials=2, patients_per_trial=6, vocabulary_size=1, note_tokens=12
                ),
                4,
            ),
            (
                SyntheticConfig(
                    n_trials=1,
                    patients_per_trial=4,
                    positive_fraction=0.5,
                    trial_shift=1.0,
                    notes_per_patient=1,
                    note_tokens=1,
                ),
                0,
            ),
        ],
    )
    def test_matches_scalar_generator(self, config, seed):
        assert dataset_to_jsonl(generate_synthetic(config, seed)) == dataset_to_jsonl(
            scalar_generate_synthetic(config, seed)
        )


def _continuation(rng: np.random.Generator) -> list:
    return [rng.random(), int(rng.integers(1000)), rng.permutation(20).tolist(), int(rng.integers(7))]


def _random_bounds(seed: int, count: int) -> np.ndarray:
    """Draw kinds and bounds up to 2**32 - 1. Bounds just above 2**31
    reject about half their first values, so Lemire re-draws are certain."""
    plan = np.random.default_rng(seed)
    bounds = plan.integers(2, 2**32, count)
    bounds[plan.random(count) < 0.2] = 2**31 + 1
    small = plan.random(count) < 0.3
    bounds[small] = plan.integers(2, 100, int(small.sum()))
    bounds[plan.random(count) < 0.4] = 0
    return bounds


class TestPcg64Stream:
    """The array calls of ``generate_synthetic`` against one numpy call per
    value on the same PCG64 stream: ``random(k)`` reads what ``k`` calls of
    ``random()`` read, and ``integers(bounds)`` what one ``integers(n)`` per
    bound reads, buffered uint32 half and Lemire re-draws included."""

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize(
        "bounds",
        [_random_bounds(seed, 300) for seed in range(4)]
        + [
            np.array(b)
            for b in ([2, 0], [0, 2], [5, 2, 0, 0], [2**31 + 1] * 6, [0], [1, 1, 3])
        ],
        ids=lambda b: f"{len(b)}-draws",
    )
    def test_matches_generator_calls(self, bounds, buffered):
        # A bound of 0 stands for a double. As in a trial of the corpus, the
        # doubles are drawn first, then the integers.
        real = np.random.default_rng(9)
        bulk = np.random.default_rng(9)
        if buffered:
            real.integers(7)
            bulk.integers(7)
        n_doubles, int_bounds = int((bounds == 0).sum()), bounds[bounds != 0]
        expected = [real.random() for _ in range(n_doubles)]
        expected += [int(real.integers(n)) for n in int_bounds.tolist()]

        got = bulk.random(n_doubles).tolist() + bulk.integers(int_bounds).tolist()

        assert got == expected
        assert bulk.bit_generator.state == real.bit_generator.state
        assert _continuation(bulk) == _continuation(real)

    def test_a_bound_may_read_earlier_doubles(self):
        self._check_bounds_read_earlier_doubles(2, 3)

    def test_a_rejected_draw_may_read_earlier_doubles(self):
        # Bounds just above 2**31 force rejections.
        self._check_bounds_read_earlier_doubles(2**31 + 1, 2**31 + 3)

    @staticmethod
    def _check_bounds_read_earlier_doubles(low, high):
        # As a token's pool sets its word's bound, each integer's bound is low
        # or high by a double drawn before all the integers.
        real = np.random.default_rng(5)
        doubles = [real.random() for _ in range(50)]
        expected = [int(real.integers(low if x < 0.5 else high)) for x in doubles]
        bulk = np.random.default_rng(5)
        bulk_doubles = bulk.random(50)
        ints = bulk.integers(np.where(bulk_doubles < 0.5, low, high))
        assert bulk_doubles.tolist() == doubles
        assert ints.tolist() == expected
        assert bulk.bit_generator.state == real.bit_generator.state


def _note_tokens(patient: PatientRecord) -> list[str]:
    return [tok for note in patient.notes for tok in note.text.split()]


def _within_4_sigma(hits: int, n: int, p: float) -> bool:
    return abs(hits / n - p) <= 4 * math.sqrt(p * (1 - p) / n)


class TestSyntheticLaw:
    """The distribution the generator promises, on one larger fixed-seed corpus."""

    CONFIG = SyntheticConfig(n_trials=4, patients_per_trial=150, signal_strength=0.5)

    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_synthetic(self.CONFIG, 2024)

    def test_marker_share_of_each_class(self, dataset):
        markers = {f"finding{j:02d}" for j in range(6)}
        markers |= {f"t{t:02d}sign{j}" for t in range(self.CONFIG.n_trials) for j in range(3)}
        counts = {0: [0, 0], 1: [0, 0]}
        for p in dataset.patients:
            tokens = _note_tokens(p)
            counts[p.label.value][0] += sum(tok in markers for tok in tokens)
            counts[p.label.value][1] += len(tokens)
        assert _within_4_sigma(*counts[0], 0.05)
        assert _within_4_sigma(*counts[1], 0.05 + self.CONFIG.signal_strength * 0.45)

    def test_trial_pool_share(self, dataset):
        hits = n = 0
        for p in dataset.patients:
            prefix = f"t{int(p.trial_id[3:]) - 1:02d}"
            tokens = _note_tokens(p)
            hits += sum(tok.startswith(prefix) for tok in tokens)
            n += len(tokens)
        assert _within_4_sigma(hits, n, self.CONFIG.trial_shift)

    def test_positives_per_trial(self, dataset):
        config = self.CONFIG
        n_pos = int(math.floor(config.positive_fraction * config.patients_per_trial + 0.5))
        for trial in dataset.trials:
            labels = [p.label.value for p in dataset.patients if p.trial_id == trial.trial_id]
            assert (len(labels), sum(labels)) == (config.patients_per_trial, n_pos)

    def test_ages_and_dates(self, dataset):
        ages, stamps = set(), []
        for p in dataset.patients:
            ages.add(int(next(r.value for r in p.structured if r.field_name == "age")))
            stamps += [note.date for note in p.notes]
            stamps += [r.timestamp for r in p.structured if r.category == "diagnosis"]
        assert ages <= set(range(40, 90))
        assert len(stamps) == len(dataset.patients) * (self.CONFIG.notes_per_patient + 2)
        for stamp in stamps:
            day = datetime.date.fromisoformat(stamp)
            assert (stamp[:5], day.day <= 28) == ("2023-", True), stamp


# ---------------------------------------------------------------------------
# make_split
# ---------------------------------------------------------------------------

def _synthetic(n_trials=2, per_trial=50, seed=0):
    return generate_synthetic(
        SyntheticConfig(n_trials=n_trials, patients_per_trial=per_trial), seed
    )


class TestMakeSplit:
    def test_random_partition(self):
        dataset = _synthetic()
        train, test = make_split(dataset, SplitSpec(mode="random", test_fraction=0.2, seed=1))
        ids = {p.patient_id for p in dataset.patients}
        assert train | test == ids
        assert train & test == set()
        assert len(test) == math.ceil(0.2 * len(ids))

    def test_random_stratified(self):
        dataset = _synthetic(per_trial=100)
        train, test = make_split(dataset, SplitSpec(mode="random", test_fraction=0.25, seed=1))
        labels = {p.patient_id: p.label.value for p in dataset.patients}
        test_pos = sum(labels[i] for i in test)
        overall = sum(labels.values()) / len(labels)
        assert abs(test_pos / len(test) - overall) < 0.05

    @pytest.mark.parametrize(
        "n_neg, n_pos, fraction, expected",
        [(3, 3, 0.2, (1, 1)), (4, 2, 0.5, (2, 1)), (2, 7, 0.5, (1, 4)), (3, 3, 0.7, (3, 2))],
    )
    def test_random_gives_each_class_the_floor_or_ceil_of_its_share(
        self, n_neg, n_pos, fraction, expected
    ):
        labels = [0] * n_neg + [1] * n_pos
        patients = [tiny_patient(f"P{i}", label=label) for i, label in enumerate(labels)]
        dataset = Dataset(patients=patients, trials=[tiny_trial()])
        for seed in range(5):
            _, test = make_split(dataset, SplitSpec(test_fraction=fraction, seed=seed))
            counts = tuple(sum(labels[int(i[1:])] == c for i in test) for c in (0, 1))
            assert counts == expected

    def test_cross_trial_full_exclusion(self):
        dataset = _synthetic()
        spec = SplitSpec(mode="cross_trial", target_trial="SYN001", exclusion_fraction=1.0, seed=3)
        train, test = make_split(dataset, spec)
        target = {p.patient_id for p in dataset.patients if p.trial_id == "SYN001"}
        assert train & target == set()
        assert test == target

    def test_cross_trial_retention_counts(self):
        dataset = _synthetic(per_trial=100)
        spec = SplitSpec(mode="cross_trial", target_trial="SYN001", exclusion_fraction=0.2, seed=3)
        train, test = make_split(dataset, spec)
        target = {p.patient_id for p in dataset.patients if p.trial_id == "SYN001"}
        assert len(train & target) == 80
        assert len(test) == 20
        assert test <= target

    @pytest.mark.parametrize("exclusion", [1.0, 0.8, 0.6, 0.4, 0.2])
    def test_cross_trial_round_invariant(self, exclusion):
        dataset = _synthetic(per_trial=30)
        spec = SplitSpec(
            mode="cross_trial", target_trial="SYN002", exclusion_fraction=exclusion, seed=9
        )
        train, test = make_split(dataset, spec)
        target = {p.patient_id for p in dataset.patients if p.trial_id == "SYN002"}
        assert len(train & target) == round((1 - exclusion) * len(target))
        assert train & test == set()

    def test_deterministic(self):
        dataset = _synthetic()
        spec = SplitSpec(mode="cross_trial", target_trial="SYN001", exclusion_fraction=0.5, seed=11)
        assert make_split(dataset, spec) == make_split(dataset, spec)
        r1 = make_split(dataset, SplitSpec(mode="random", test_fraction=0.3, seed=4))
        r2 = make_split(dataset, SplitSpec(mode="random", test_fraction=0.3, seed=4))
        assert r1 == r2

    def test_target_trial_missing(self):
        dataset = _synthetic()
        spec = SplitSpec(mode="cross_trial", target_trial="NOPE", exclusion_fraction=0.5, seed=0)
        with pytest.raises(DataError, match="NOPE"):
            make_split(dataset, spec)

    def test_empty_side_fails(self):
        dataset = _synthetic(n_trials=1, per_trial=4)
        spec = SplitSpec(mode="cross_trial", target_trial="SYN001", exclusion_fraction=0.0, seed=0)
        with pytest.raises(DataError, match="empty"):
            make_split(dataset, spec)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SplitSpec(mode="cross_trial", target_trial=None)
        with pytest.raises(ConfigError):
            SplitSpec(test_fraction=0.0)
        with pytest.raises(ConfigError):
            SplitSpec(mode="nope")
