import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tiny_patient, tiny_trial, write_jsonl
from trialmatch.corpus import (
    Dataset,
    SplitSpec,
    StructuredRow,
    SyntheticConfig,
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
        assert {c.source for c in notes_only} == {"note"}
        assert {c.source for c in rows_only} == {"structured"}
        assert len(mixed) == len(notes_only) + len(rows_only)

    def test_ordinals_dense(self):
        patient = tiny_patient("P1")
        for modality in ("mixed", "structured", "unstructured"):
            chunks = build_chunks(patient, 4, 1, modality)
            assert [c.ordinal for c in chunks] == list(range(len(chunks)))

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

    def test_round_trip_through_files(self, tmp_path):
        config = SyntheticConfig(n_trials=2, patients_per_trial=10)
        dataset = generate_synthetic(config, 5)
        write_dataset(dataset, tmp_path / "p.jsonl", tmp_path / "t.jsonl")
        loaded = load_dataset(tmp_path / "p.jsonl", tmp_path / "t.jsonl")
        assert dataset_to_jsonl(loaded) == dataset_to_jsonl(dataset)


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
