import csv
import json

import numpy as np
import pytest

from trialmatch import cli
from trialmatch.corpus import Chunk, Criterion
from trialmatch.errors import ConfigError, DataError
from trialmatch.retrieval import (
    DEFAULT_K_RETRIEVE,
    PROMPT_SEPARATOR,
    assemble_prompt,
    score_chunks,
    select_top_k,
)


def _chunk(i: int, patient: str = "P1") -> Chunk:
    return Chunk(chunk_id=f"{patient}:c{i}", text=f"chunk text {i}")


def _criterion(i: int) -> Criterion:
    return Criterion(f"C{i}", "inclusion" if i % 2 == 0 else "exclusion", f"criterion {i}")


def cosine(a, b) -> float:
    """The cosine of one chunk vector against one criterion vector."""
    return float(score_chunks([_chunk(0)], [a], [_criterion(0)], [b])[0, 0])


class TestCosine:
    def test_identical_direction(self):
        assert cosine(np.array([1.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_analytic_45_degrees(self):
        got = cosine(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)

    def test_scale_invariance(self):
        assert cosine(np.array([2.0, 0.0]), np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_dim_mismatch(self):
        with pytest.raises(DataError, match="equal-length vectors"):
            cosine(np.ones(2), np.ones(3))

    def test_zero_norm(self):
        with pytest.raises(DataError, match="zero-norm"):
            cosine(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(DataError, match="zero-norm"):
            cosine(np.array([1.0, 0.0]), np.zeros(2))

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        assert cosine(a, b) == pytest.approx(cosine(b, a), abs=1e-15)


class TestScoreChunks:
    def test_single_criterion_degenerate_sum(self):
        cosines = score_chunks(
            [_chunk(0)], [np.array([1.0, 1.0])], [_criterion(0)], [np.array([1.0, 0.0])]
        )
        assert cosines.shape == (1, 1)
        assert cosines.sum(axis=1)[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)

    def test_sum_of_two(self):
        # cosines 0.3 and 0.5 against a unit x-axis chunk vector
        chunk_vec = np.array([1.0, 0.0])
        c1 = np.array([0.3, np.sqrt(1 - 0.09)])
        c2 = np.array([0.5, np.sqrt(1 - 0.25)])
        cosines = score_chunks(
            [_chunk(0)], [chunk_vec], [_criterion(0), _criterion(1)], [c1, c2]
        )
        assert cosines[0] == pytest.approx([0.3, 0.5], abs=1e-12)
        assert cosines.sum(axis=1)[0] == pytest.approx(0.8, abs=1e-9)

    def test_orthogonal_chunk(self):
        cosines = score_chunks(
            [_chunk(0)],
            [np.array([0.0, 0.0, 1.0])],
            [_criterion(0), _criterion(1)],
            [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])],
        )
        assert cosines.sum(axis=1)[0] == pytest.approx(0.0, abs=1e-12)

    def test_aggregate_matches_breakdown(self):
        # Row i, column j is the cosine of chunk i against criterion j alone.
        rng = np.random.default_rng(3)
        chunks = [_chunk(i) for i in range(5)]
        cvecs = [rng.standard_normal(8) for _ in range(4)]
        kvecs = [rng.standard_normal(8) for _ in chunks]
        cosines = score_chunks(chunks, kvecs, [_criterion(i) for i in range(4)], cvecs)
        assert cosines.shape == (5, 4)
        for i, kvec in enumerate(kvecs):
            for j, cvec in enumerate(cvecs):
                assert cosines[i, j] == pytest.approx(cosine(kvec, cvec), abs=1e-12)

    def test_error_names_ids(self):
        with pytest.raises(DataError, match=r"P1:c0.*C0"):
            score_chunks(
                [_chunk(0)], [np.zeros(2)], [_criterion(0)], [np.array([1.0, 0.0])]
            )

    def test_requires_criteria(self):
        with pytest.raises(DataError):
            score_chunks([_chunk(0)], [np.ones(2)], [], [])


class TestSelectTopK:
    def test_default_k_is_four(self):
        assert DEFAULT_K_RETRIEVE == 4
        cosines = np.array([0.9, 0.8, 0.7, 0.6, 0.5, 0.4])[:, None]
        assert select_top_k(cosines).tolist() == [0, 1, 2, 3]

    def test_tie_broken_by_position(self):
        assert select_top_k(np.array([[0.9], [0.9]]), 2).tolist() == [0, 1]
        assert select_top_k(np.array([[0.2], [0.9], [0.9]]), 1).tolist() == [1]

    def test_k_larger_than_n(self):
        assert len(select_top_k(np.array([[0.2], [0.1]]), 5)) == 2

    def test_k_zero_rejected(self):
        with pytest.raises(ConfigError):
            select_top_k(np.array([[0.5]]), 0)

    def test_empty_input(self):
        with pytest.raises(DataError, match="no chunks to select from"):
            select_top_k(np.empty((0, 3)), 4)

    @pytest.mark.parametrize(
        "cosines, message",
        [
            (np.array([0.9, 0.1]), r"^cosines must be a non-empty 2-D array, got shape \(2,\)$"),
            (np.full((2, 2), np.nan), "^cosines must be finite$"),
        ],
        ids=["one-dimensional", "nan"],
    )
    def test_cosines_that_are_no_finite_matrix_are_rejected(self, cosines, message):
        with pytest.raises(DataError, match=message):
            select_top_k(cosines, 1)

    def test_output_in_selection_order(self):
        # Ranked by the row sum, not by any one criterion.
        cosines = np.array([[0.1, 0.0], [0.4, 0.5], [0.6, -0.1]])
        assert select_top_k(cosines, 3).tolist() == [1, 2, 0]


class TestOracleEquivalence:
    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(123)
        for case in range(250):
            n_chunks = int(rng.integers(1, 51))
            n_criteria = int(rng.integers(1, 9))
            dim = int(rng.integers(2, 33))
            k = int(rng.integers(1, 7))
            chunk_vecs = [rng.standard_normal(dim) for _ in range(n_chunks)]
            # Force ties: duplicate some chunk vectors outright.
            for i in range(n_chunks):
                if i > 0 and rng.random() < 0.3:
                    chunk_vecs[i] = chunk_vecs[int(rng.integers(i))].copy()
            crit_vecs = [rng.standard_normal(dim) for _ in range(n_criteria)]
            chunks = [_chunk(i) for i in range(n_chunks)]
            criteria = [_criterion(j) for j in range(n_criteria)]

            got = select_top_k(score_chunks(chunks, chunk_vecs, criteria, crit_vecs), k)

            # Exhaustive re-computation and full sort.
            def cos(a, b):
                return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

            sums = []
            for i, cv in enumerate(chunk_vecs):
                total = 0.0
                for qv in crit_vecs:
                    total += cos(cv, qv)
                sums.append((i, total))
            expected = sorted(sums, key=lambda item: (-item[1], item[0]))[:k]
            assert got.tolist() == [i for i, _ in expected]

    def test_scale_invariance_of_selection(self):
        rng = np.random.default_rng(7)
        chunks = [_chunk(i) for i in range(20)]
        chunk_vecs = [rng.standard_normal(6) for _ in chunks]
        criteria = [_criterion(j) for j in range(3)]
        crit_vecs = [rng.standard_normal(6) for _ in criteria]
        base = select_top_k(score_chunks(chunks, chunk_vecs, criteria, crit_vecs), 5)
        scaled = select_top_k(
            score_chunks(chunks, [v * 37.5 for v in chunk_vecs], criteria, crit_vecs), 5
        )
        assert base.tolist() == scaled.tolist()

    def test_duplicated_criterion_doubles_contribution(self):
        rng = np.random.default_rng(11)
        chunks = [_chunk(i) for i in range(6)]
        chunk_vecs = [rng.standard_normal(4) for _ in chunks]
        criteria = [_criterion(0), _criterion(1)]
        crit_vecs = [rng.standard_normal(4), rng.standard_normal(4)]
        base = score_chunks(chunks, chunk_vecs, criteria, crit_vecs)
        doubled = score_chunks(
            chunks,
            chunk_vecs,
            criteria + [Criterion("C1-copy", "inclusion", "criterion 1")],
            crit_vecs + [crit_vecs[1]],
        )
        assert np.array_equal(doubled[:, 2], base[:, 1])
        assert doubled.sum(axis=1) == pytest.approx(
            base.sum(axis=1) + base[:, 1], abs=1e-12
        )


class TestAssemblePrompt:
    def test_template_tags(self):
        criteria = [
            Criterion("C0", "inclusion", "fever required"),
            Criterion("C1", "exclusion", "no prior enrollment"),
        ]
        prompt = assemble_prompt("instructions here", criteria, ["the chunk text"])
        assert prompt == PROMPT_SEPARATOR.join(
            [
                "instructions here",
                "[INCLUSION] C0: fever required\n[EXCLUSION] C1: no prior enrollment",
                "[EHR 1/1] the chunk text",
            ]
        )

    def test_deterministic(self):
        criteria = [Criterion("C0", "inclusion", "fever")]
        assert assemble_prompt("i", criteria, ["text"]) == assemble_prompt(
            "i", criteria, ["text"]
        )

    def test_chunks_ordered_by_score(self):
        # The texts arrive in rank order (select_top_k's order) and keep it.
        cosines = np.array([[0.2], [0.9]])
        texts = ["LOW", "HIGH"]
        ranked = [texts[i] for i in select_top_k(cosines, 2)]
        prompt = assemble_prompt("i", [Criterion("C0", "inclusion", "fever")], ranked)
        lines = prompt.split(PROMPT_SEPARATOR)[-1].splitlines()
        assert lines == ["[EHR 1/2] HIGH", "[EHR 2/2] LOW"]

    def test_requires_selection(self):
        with pytest.raises(DataError):
            assemble_prompt("i", [Criterion("C0", "inclusion", "x")], [])


class TestAuditRows:
    def test_row_count_is_chunks_times_criteria(self, tmp_path, capsys, dataset_files):
        # Each tiny patient has 6 chunks of at most 4 tokens and its trial 2
        # criteria; k = 2 of the 6 chunks are selected.
        patients, trials = dataset_files
        audit = tmp_path / "audit.csv"
        argv = ["retrieve", "--patients", str(patients), "--trials", str(trials)]
        argv += ["--chunk-size", "4", "--overlap", "1", "--k", "2"]
        assert cli.main(argv + ["--json", "--audit", str(audit)]) == cli.EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        with audit.open(encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert payload["audit_rows"] == len(rows) == 2 * 6 * 2
        for patient in payload["patients"]:
            mine = [r for r in rows if r["patient_id"] == patient["patient_id"]]
            assert len(mine) == 6 * 2
            chosen = {r["chunk_id"] for r in mine if r["selected"] == "true"}
            assert chosen == {s["chunk_id"] for s in patient["selected"]}
            for s in patient["selected"]:
                cosines = [float(r["cosine"]) for r in mine if r["chunk_id"] == s["chunk_id"]]
                assert len(cosines) == 2
                assert sum(cosines) == pytest.approx(s["score"], abs=1e-12)
