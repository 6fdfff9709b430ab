import numpy as np
import pytest

from trialmatch.errors import UndefinedMetricError
from trialmatch.metrics import auprc, auroc


def pairwise_auroc(y: np.ndarray, s: np.ndarray) -> float:
    """Brute-force Mann-Whitney count over every (positive, negative) pair;
    a tie counts one half."""
    pos, neg = s[y == 1.0], s[y == 0.0]
    greater = int(np.sum(pos[:, None] > neg[None, :]))
    ties = int(np.sum(pos[:, None] == neg[None, :]))
    return (greater + 0.5 * ties) / (pos.size * neg.size)


class TestAuroc:
    def test_rank_sum_equals_pairwise_count_on_tied_scores(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
            y[0], y[1] = 1.0, 0.0  # both classes present
            # Few distinct values, so most scores tie across classes.
            s = rng.integers(0, int(rng.integers(1, 6)), n) / 4.0
            assert auroc(y, s) == pairwise_auroc(y, s)

    def test_one_class_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auroc([1.0, 1.0], [0.2, 0.7])


class TestAuprc:
    def test_stable_for_a_fixed_tie_seed(self):
        rng = np.random.default_rng(4)
        y = (rng.random(60) < 0.4).astype(float)
        s = rng.integers(0, 4, 60) / 3.0
        values = {auprc(y, s, tie_seed=9) for _ in range(5)}
        assert len(values) == 1

    def test_invariant_to_input_order(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 50))
            y = (rng.random(n) < 0.5).astype(float)
            y[0] = 1.0
            s = rng.random(n)
            expected = auprc(y, s, tie_seed=1)
            perm = rng.permutation(n)
            assert auprc(y[perm], s[perm], tie_seed=1) == expected

    def test_ties_within_one_class_do_not_depend_on_order(self):
        # Each score value belongs to one class only, so every tie order
        # gives the same ranked label sequence.
        y = np.array([1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0])
        s = np.array([0.9, 0.9, 0.4, 0.4, 0.3, 0.7, 0.4])
        expected = (1 / 1 + 2 / 2 + 3 / 7) / 3
        rng = np.random.default_rng(2)
        for seed in range(5):
            perm = rng.permutation(y.size)
            assert auprc(y[perm], s[perm], tie_seed=seed) == expected

    def test_no_positive_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            auprc([0.0, 0.0], [0.2, 0.7])
