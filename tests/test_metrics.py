import hashlib
import json
from dataclasses import asdict, astuple

import numpy as np
import pytest

from trialmatch.errors import DataError
from trialmatch.metrics import compute_report, csv_cell


def pairwise_auroc(y: np.ndarray, s: np.ndarray) -> float:
    """Brute-force Mann-Whitney count over every (positive, negative) pair;
    a tie counts one half."""
    pos, neg = s[y == 1.0], s[y == 0.0]
    greater = int(np.sum(pos[:, None] > neg[None, :]))
    ties = int(np.sum(pos[:, None] == neg[None, :]))
    return (greater + 0.5 * ties) / (pos.size * neg.size)


class TestAuroc:
    def test_equals_the_pairwise_count(self):
        rng = np.random.default_rng(31)
        for i in range(400):
            n = int(rng.integers(2, 401))
            y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
            y[0], y[1] = 1.0, 0.0  # both classes present
            if i % 2:
                # Few distinct values, so most scores tie across classes.
                s = rng.integers(0, int(rng.integers(1, 6)), n) / 4.0
            else:
                s = rng.random(n)
            assert compute_report(y, s).auroc == pairwise_auroc(y, s)

    @pytest.mark.parametrize("label", [0.0, 1.0])
    def test_one_class_is_undefined(self, label):
        assert compute_report([label, label], [0.2, 0.7]).auroc is None


def running_sum_auprc(y: np.ndarray, s: np.ndarray) -> float:
    """Precision at each positive's rank, summed in rank order: the untied
    definition, written as a plain loop."""
    found, ap = 0, 0.0
    for rank, idx in enumerate(np.argsort(-s, kind="stable"), start=1):
        if y[idx] == 1.0:
            found += 1
            ap += found / rank
    return ap / int(np.sum(y == 1.0))


def threshold_auprc(y: np.ndarray, s: np.ndarray) -> float:
    """Sum over distinct thresholds t, descending, of the recall gained at t
    times the precision of predicting positive iff score >= t."""
    n_pos = int(np.sum(y == 1.0))
    ap, recall_before = 0.0, 0.0
    for t in np.unique(s)[::-1]:
        predicted = s >= t
        tp = int(np.sum(predicted & (y == 1.0)))
        recall = tp / n_pos
        ap += (recall - recall_before) * tp / int(np.sum(predicted))
        recall_before = recall
    return ap


class TestAuprc:
    def test_worked_example_with_a_cross_class_tie(self):
        # 0.8 holds one positive and one negative: one threshold, precision
        # 1/2 for that positive; then 2/3 for the positive at 0.5.
        y = np.array([1.0, 0.0, 1.0, 0.0])
        s = np.array([0.8, 0.8, 0.5, 0.1])
        assert compute_report(y, s).auprc == pytest.approx((1 / 2 + 2 / 3) / 2, abs=1e-15)
        assert compute_report(y[::-1], s[::-1]).auprc == compute_report(y, s).auprc

    def test_invariant_to_input_order_under_cross_class_ties(self):
        rng = np.random.default_rng(4)
        y = (rng.random(60) < 0.4).astype(float)
        s = rng.integers(0, 4, 60) / 3.0
        values = set()
        for _ in range(50):
            perm = rng.permutation(y.size)
            values.add(compute_report(y[perm], s[perm]).auprc)
        assert len(values) == 1

    def test_matches_the_threshold_definition_on_tied_scores(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
            y[0] = 1.0
            s = rng.integers(0, int(rng.integers(1, 6)), n) / 4.0
            assert compute_report(y, s).auprc == pytest.approx(threshold_auprc(y, s), abs=1e-12)

    def test_untied_scores_give_the_running_sum_bit_for_bit(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(1, 60))
            y = (rng.random(n) < 0.5).astype(float)
            y[0] = 1.0
            s = rng.random(n)
            assert compute_report(y, s).auprc == running_sum_auprc(y, s)

    def test_invariant_to_input_order(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 50))
            y = (rng.random(n) < 0.5).astype(float)
            y[0] = 1.0
            s = rng.random(n)
            expected = compute_report(y, s).auprc
            perm = rng.permutation(n)
            assert compute_report(y[perm], s[perm]).auprc == expected

    def test_ties_within_one_class_do_not_depend_on_order(self):
        # Each score value belongs to one class only, so every tie order
        # gives the same ranked label sequence.
        y = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        s = np.array([0.9, 0.9, 0.4, 0.4, 0.3, 0.7, 0.4])
        expected = (1 / 1 + 2 / 2 + 3 / 7) / 3
        rng = np.random.default_rng(2)
        for _ in range(5):
            perm = rng.permutation(y.size)
            assert compute_report(y[perm], s[perm]).auprc == expected

    # With one class AUROC is absent (TestAuroc.test_one_class_is_undefined).
    def test_no_positive_is_undefined(self):
        assert compute_report([0.0, 0.0], [0.2, 0.7]).auprc is None

    def test_all_positive_is_one(self):
        assert compute_report([1.0, 1.0], [0.2, 0.7]).auprc == 1.0


class TestComputeReport:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_is_rejected(self, bad):
        # With a NaN score the rank-based metrics would still report numbers
        # (AUROC 0.0 and AUPRC 1.0 for this input).
        with pytest.raises(DataError, match="scores must be finite"):
            compute_report([1, 0, 1], [0.9, bad, 0.4])

    def test_rows_and_dicts_match_recorded_digest(self):
        # ~300 seeded inputs: quarter-step scores, so most tie across classes
        # and many equal the threshold; every tenth input has one class only
        # (AUROC absent, and AUPRC too without positives).
        rng = np.random.default_rng(2024)
        digest = hashlib.sha256()
        single_class = 0
        for i in range(300):
            n = int(rng.integers(1, 25))
            threshold = float(rng.choice([0.25, 0.5, 0.75]))
            if i % 10 == 0:
                y = np.full(n, float(rng.integers(0, 2)))
            else:
                y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
            scores = rng.integers(0, 5, n) / 4.0 if i % 2 == 0 else rng.random(n)
            report = compute_report(y, scores, threshold)
            single_class += report.auroc is None
            digest.update(json.dumps(asdict(report)).encode())
            digest.update(",".join([csv_cell(v) for v in astuple(report)]).encode() + b"\n")
        assert single_class >= 30
        assert digest.hexdigest() == (
            "e61070706562037eba7989b252ca805c6523e25787f0f3aaf69e6be6803eedba"
        )
