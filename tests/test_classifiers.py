import gc
import hashlib
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from trialmatch.classifiers import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    AdamState,
    MLPModel,
    TrainConfig,
    adam_step,
    bce_loss,
    predict_proba,
    train_forest,
    train_mlp,
    train_svm,
    train_tree,
    train_with_adapter,
    _backward_stack,
    _best_split,
    _forward_stack,
    _init_params,
    _sigmoid,
)
from trialmatch.errors import ConfigError, DataError


def gini(labels: np.ndarray) -> float:
    """2 p (1 - p) for binary labels; 0 for a pure node."""
    p = float(labels.mean())
    return 2.0 * p * (1.0 - p)


def blobs(seed: int, n: int = 100, margin: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Two linearly separable 2-D clusters centered at +/-(1 + margin/2)."""
    rng = np.random.default_rng(seed)
    half = n // 2
    offset = 1.0 + margin / 2.0
    pos = rng.standard_normal((half, 2)) * 0.3 + offset
    neg = rng.standard_normal((n - half, 2)) * 0.3 - offset
    X = np.vstack([pos, neg])
    y = np.array([1.0] * half + [0.0] * (n - half))
    perm = rng.permutation(n)
    return X[perm], y[perm]


def params_digest(arrays) -> str:
    """sha256 of the float64 bytes of ``arrays``, in order."""
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()


# The step settings of ``pinned_problem``'s fits.
PINNED_STEP = dict(learning_rate=0.03, batch_size=16, seed=17)


def pinned_problem():
    """Training set, noisy validation set and a schedule that, with
    ``PINNED_STEP``'s aggressive learning rate, puts the best validation
    epoch (4) well before the stop (12), so the best-epoch snapshot is what
    the fit returns."""
    rng = np.random.default_rng(2024)
    X = rng.standard_normal((70, 5))
    y = (X[:, 0] + 0.5 * rng.standard_normal(70) > 0).astype(float)
    Xv = rng.standard_normal((20, 5))
    yv = (Xv[:, 0] + rng.standard_normal(20) > 0).astype(float)
    return X, y, (Xv, yv), TrainConfig(max_epochs=60, patience=8)


class TestBceLoss:
    def test_single_sample_ln2(self):
        assert bce_loss([0.5], [1.0]) == pytest.approx(math.log(2.0), abs=1e-6)

    def test_perfect_predictions_clamp_bound(self):
        n = 10
        loss = bce_loss([1.0] * n, [1.0] * n, clamp_epsilon=1e-7)
        assert loss <= -n * math.log(1.0 - 1e-7) + 1e-15
        assert loss < 1e-6 * n

    def test_hand_computed_pair(self):
        loss = bce_loss([0.9, 0.1], [1.0, 0.0])
        assert loss == pytest.approx(-2.0 * math.log(0.9), abs=1e-6)
        assert loss == pytest.approx(0.210721, abs=1e-6)

    def test_summed_not_averaged(self):
        one = bce_loss([0.7], [1.0])
        four = bce_loss([0.7] * 4, [1.0] * 4)
        assert four == pytest.approx(4.0 * one, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            bce_loss([0.5, 0.5], [1.0])


def probability(model: MLPModel, x: np.ndarray) -> float:
    """The model's probability for one feature vector."""
    return float(predict_proba(model, x[None, :])[0])


def summed_bce_grads(model: MLPModel, X: np.ndarray, y: np.ndarray):
    """(weight, bias) gradients of the summed BCE over one batch, as the
    training loop computes them."""
    activations, probs = _forward_stack(model.weights, model.biases, X)
    grads_w = [np.empty_like(w) for w in model.weights]
    grads_b = [np.empty_like(b) for b in model.biases]
    _backward_stack(model.weights, activations, probs, y, grads_w, grads_b)
    return grads_w, grads_b


class TestMlpForward:
    def test_zero_parameters_give_half(self):
        model = MLPModel(
            layer_sizes=(3, 2, 1),
            weights=[np.zeros((3, 2)), np.zeros((2, 1))],
            biases=[np.zeros(2), np.zeros(1)],
        )
        for x in (np.zeros(3), np.ones(3), np.array([-5.0, 2.0, 9.0])):
            assert probability(model, x) == pytest.approx(0.5)

    def test_single_logistic_unit(self):
        model = MLPModel(
            layer_sizes=(1, 1),
            weights=[np.zeros((1, 1))],
            biases=[np.array([2.0])],
        )
        assert probability(model, np.array([3.0])) == pytest.approx(0.880797, abs=1e-6)

    def test_output_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(0)
        w, b = _init_params((4, 8, 1), rng)
        model = MLPModel(layer_sizes=(4, 8, 1), weights=w, biases=b)
        for _ in range(20):
            p = probability(model, rng.standard_normal(4) * 10)
            assert 0.0 < p < 1.0

    def test_dim_mismatch(self):
        model = MLPModel(
            layer_sizes=(2, 1), weights=[np.zeros((2, 1))], biases=[np.zeros(1)]
        )
        with pytest.raises(DataError, match="features have 3 columns, model expects 2"):
            probability(model, np.zeros(3))


class TestMlpGrad:
    def test_hand_derived_logistic_unit(self):
        model = MLPModel(
            layer_sizes=(1, 1), weights=[np.zeros((1, 1))], biases=[np.zeros(1)]
        )
        grads_w, grads_b = summed_bce_grads(model, np.array([[1.0]]), np.array([1.0]))
        assert grads_b[0][0] == pytest.approx(-0.5, abs=1e-12)
        assert grads_w[0][0, 0] == pytest.approx(-0.5, abs=1e-12)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(20):
            sizes = [int(rng.integers(2, 7))]
            for _ in range(int(rng.integers(0, 3))):
                sizes.append(int(rng.integers(2, 9)))
            sizes.append(1)
            weights, biases = _init_params(tuple(sizes), rng)
            model = MLPModel(layer_sizes=tuple(sizes), weights=weights, biases=biases)
            n = int(rng.integers(2, 9))
            X = rng.standard_normal((n, sizes[0]))
            y = (rng.random(n) < 0.5).astype(float)
            grads_w, grads_b = summed_bce_grads(model, X, y)

            h = 1e-5
            for li in range(len(weights)):
                flat = weights[li]
                idx = (int(rng.integers(flat.shape[0])), int(rng.integers(flat.shape[1])))
                wp = [w.copy() for w in weights]
                wm = [w.copy() for w in weights]
                wp[li][idx] += h
                wm[li][idx] -= h
                _, pp = _forward_stack(wp, biases, X)
                _, pm = _forward_stack(wm, biases, X)
                fd = (bce_loss(pp, y) - bce_loss(pm, y)) / (2 * h)
                bp = grads_w[li][idx]
                err = abs(bp - fd) / max(1e-8, abs(bp), abs(fd))
                worst = max(worst, err)
        assert worst < 1e-4

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError):
            train_mlp(np.zeros((0, 2)), np.zeros(0))


class TestAdamStep:
    """``adam_step`` updates one flat parameter vector and its state in place."""

    def test_zero_gradient_no_move(self):
        params = np.array([1.0, -2.0, 3.0])
        before = params.copy()
        state = AdamState.zeros_like(params)
        assert adam_step(params, np.zeros(3), state, 1e-3) is None
        assert np.array_equal(params, before)
        assert not state.m.any() and not state.v.any()
        assert state.t == 1

    def test_first_step_is_signed_learning_rate(self):
        params = np.zeros(2)
        adam_step(params, np.array([5.0, -3.0]), AdamState.zeros_like(params), 0.01)
        assert params == pytest.approx(np.array([-0.01, 0.01]), abs=1e-8)

    def test_deterministic(self):
        a, b = np.array([0.5, -0.25]), np.array([0.5, -0.25])
        state_a, state_b = AdamState.zeros_like(a), AdamState.zeros_like(b)
        for g in (np.array([0.2, 0.1]), np.array([-0.3, 0.05])):
            adam_step(a, g, state_a, 1e-3)
            adam_step(b, g, state_b, 1e-3)
        assert np.array_equal(a, b)
        assert np.array_equal(state_a.m, state_b.m) and np.array_equal(state_a.v, state_b.v)

    def test_shape_mismatch(self):
        params = np.zeros(2)
        state = AdamState.zeros_like(params)
        with pytest.raises(DataError):
            adam_step(params, np.zeros(3), state, 1e-3)
        with pytest.raises(DataError):
            adam_step(np.zeros(3), np.zeros(3), state, 1e-3)

    @staticmethod
    def steps_against_textbook(dtype):
        """12 in-place steps in ``dtype``, each checked bit for bit against
        the textbook update written inline; returns the final parameters."""
        lr = 3e-3
        rng = np.random.default_rng(5)
        params = rng.standard_normal(257).astype(dtype)
        state = AdamState.zeros_like(params)
        # Oracle: the textbook update, one fresh array per operation.
        p, m, v = params.copy(), np.zeros_like(params), np.zeros_like(params)
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for t in range(1, 13):
            g = (rng.standard_normal(257) * 10.0 ** rng.integers(-6, 3)).astype(dtype)
            g[::7] = 0.0
            adam_step(params, g, state, lr)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1**t)
            v_hat = v / (1.0 - b2**t)
            p = p - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
            assert state.t == t
            assert params.dtype == p.dtype == dtype
            assert params.tobytes() == p.tobytes()
            assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()
        return params

    def test_matches_the_allocating_update_bit_for_bit(self):
        self.steps_against_textbook(np.float64)

    def test_float32_matches_the_allocating_update_bit_for_bit(self):
        self.steps_against_textbook(np.float32)

    def test_float32_tracks_float64_within_rounding(self):
        # Each step rounds the parameters (|p| < 5) and moves them by at most
        # about lr / (1 - b1) = 0.02; a few float32 ulps of both per step,
        # over 12 steps, bound the drift.
        p32 = self.steps_against_textbook(np.float32).astype(np.float64)
        p64 = self.steps_against_textbook(np.float64)
        assert np.max(np.abs(p32 - p64)) <= 12 * 4 * np.finfo(np.float32).eps * 5.0

    def test_scratch_takes_the_parameters_dtype(self):
        for dtype in (np.float32, np.float64):
            state = AdamState.zeros_like(np.zeros(5, dtype=dtype))
            assert state.m.dtype == state.v.dtype == state.scratch.dtype == dtype


class TestTrainMlp:
    def test_separable_blobs_high_accuracy(self):
        for seed in range(5):
            X, y = blobs(seed, n=100, margin=1.0)
            config = TrainConfig(max_epochs=60)
            model, _ = train_mlp(X, y, config, hidden_sizes=(8,), seed=seed)
            preds = (predict_proba(model, X) >= 0.5).astype(float)
            assert (preds == y).mean() >= 0.99

    def test_deterministic_parameters(self):
        X, y = blobs(3)
        config = TrainConfig(max_epochs=15)
        m1, log1 = train_mlp(X, y, config, hidden_sizes=(6,), seed=11)
        m2, log2 = train_mlp(X, y, config, hidden_sizes=(6,), seed=11)
        for a, b in zip(m1.weights, m2.weights):
            assert np.array_equal(a, b)
        for a, b in zip(m1.biases, m2.biases):
            assert np.array_equal(a, b)
        assert log1.losses == log2.losses

    def test_single_class_error(self):
        X = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(DataError, match="single class"):
            train_mlp(X, np.ones(10), TrainConfig(max_epochs=2))

    @pytest.mark.parametrize("train", [train_mlp, train_with_adapter])
    @pytest.mark.parametrize("step", [dict(learning_rate=0.0), dict(batch_size=0)])
    def test_nonpositive_step_is_a_config_error(self, train, step):
        X, y = blobs(4, n=20)
        message = "^learning_rate and batch_size must be positive$"
        with pytest.raises(ConfigError, match=message):
            train(X, y, TrainConfig(max_epochs=1), **step)

    @pytest.mark.parametrize("schedule", [dict(max_epochs=0), dict(patience=-1)])
    def test_nonpositive_schedule_is_a_config_error(self, schedule):
        with pytest.raises(ConfigError, match="^max_epochs and patience must be positive$"):
            TrainConfig(**schedule)

    def test_full_batch_loss_descends(self):
        X, y = blobs(7, n=60)
        config = TrainConfig(max_epochs=100, patience=100)
        _, log = train_mlp(X, y, config, hidden_sizes=(8,), batch_size=60)
        losses = log.losses
        assert losses[-1] < losses[0]
        violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-9)
        assert violations <= max(1, int(0.01 * len(losses)))

    def test_early_stopping_uses_patience(self):
        # Noisy validation labels make the monitored loss plateau quickly.
        rng = np.random.default_rng(14)
        X, y = blobs(1, n=60)
        Xv = rng.standard_normal((30, 2))
        yv = (rng.random(30) < 0.5).astype(float)
        config = TrainConfig(max_epochs=300, patience=3)
        _, log = train_mlp(X, y, config, validation=(Xv, yv), hidden_sizes=(4,))
        assert log.stopped_epoch < 300
        assert log.best_epoch <= log.stopped_epoch

    def test_validation_snapshot_returned(self):
        X, y = blobs(2, n=80)
        Xv, yv = blobs(9, n=30)
        config = TrainConfig(max_epochs=40)
        model, log = train_mlp(X, y, config, validation=(Xv, yv), hidden_sizes=(6,), seed=5)
        assert log.monitor == "validation"
        assert log.losses[log.best_epoch - 1] == min(log.losses)

    # Digests of fits recorded before the training step was rewritten to
    # update one flat parameter vector in place (NumPy 2.4, OpenBLAS,
    # x86_64); the rewrite must reproduce every bit.
    def test_validation_fit_matches_recorded_digest(self):
        X, y, validation, config = pinned_problem()
        model, log = train_mlp(
            X, y, config, validation=validation, hidden_sizes=(8, 4), **PINNED_STEP
        )
        assert (log.best_epoch, log.stopped_epoch) == (4, 12)
        assert params_digest([*model.weights, *model.biases]) == (
            "b132dc5c0ce32761c98b2c5f80488b15e23eb0c0a6780a2fee038477705f2667"
        )
        assert log.monitor == "validation" and len(log.losses) == 12

    def test_training_fit_matches_recorded_digest(self):
        X, y, _, config = pinned_problem()
        model, log = train_mlp(X, y, config, hidden_sizes=(8, 4), **PINNED_STEP)
        assert (log.best_epoch, log.stopped_epoch) == (58, 60)
        assert params_digest([*model.weights, *model.biases]) == (
            "a8bdac4e05a34265ca3eca372fcecc98e9bda1461de2bd92e5d1e2599ba61dfd"
        )
        assert log.monitor == "train" and len(log.losses) == 60
        assert log.losses[-1] == float.fromhex("0x1.37b2f149b27dep-4")

    # Recorded when float32 training was introduced (same platform); pins
    # the float32 arithmetic as the digests above pin the float64 one.
    def test_float32_fit_matches_recorded_digest(self):
        X, y, (Xv, yv), config = pinned_problem()
        model, log = train_mlp(
            X.astype(np.float32),
            y,
            config,
            validation=(Xv.astype(np.float32), yv),
            hidden_sizes=(8, 4),
            **PINNED_STEP,
        )
        assert (log.best_epoch, log.stopped_epoch) == (4, 12)
        assert params_digest([*model.weights, *model.biases]) == (
            "bd6c43a7d484a8afd2c7d782c002832326ab24e036fa84315d528e04f15287e2"
        )


class TestTrainingDtype:
    """A fit trains and returns its parameters in the features' dtype."""

    @staticmethod
    def fit(dtype, case):
        X, y, (Xv, yv), _ = pinned_problem()
        args = (X.astype(dtype), y, TrainConfig(max_epochs=3), (Xv.astype(dtype), yv), (4,))
        if case == "none":
            model, _ = train_mlp(*args, seed=3)
            return [*model.weights, *model.biases]
        model, _ = train_with_adapter(*args, seed=3)
        return [model.adapter, *model.mlp.weights, *model.mlp.biases]

    @pytest.mark.parametrize("case", ["none", "trainable-square"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_parameters_take_the_features_dtype(self, dtype, case):
        assert {a.dtype for a in self.fit(dtype, case)} == {np.dtype(dtype)}

    def test_validation_is_cast_to_the_features_dtype(self):
        X, y, (Xv, yv), config = pinned_problem()
        X32 = X.astype(np.float32)
        cast = train_mlp(X32, y, config, (Xv.astype(np.float32), yv), (4,), **PINNED_STEP)
        wide = train_mlp(X32, y, config, (Xv, yv), (4,), **PINNED_STEP)
        assert cast[1].losses == wide[1].losses

    def test_other_inputs_train_in_float64(self):
        X, y = blobs(3, n=20)
        for features in (X.tolist(), X.astype(np.float16), (X > 0).astype(int)):
            model, _ = train_mlp(features, y, TrainConfig(max_epochs=1), hidden_sizes=(3,))
            assert {a.dtype for a in [*model.weights, *model.biases]} == {np.dtype(np.float64)}

    def test_float32_saturated_logits_raise_no_warning(self):
        # pytest turns warnings into errors, so an overflow would fail here.
        z = np.array([-100.0, 100.0], dtype=np.float32)
        probs = _sigmoid(z)
        assert probs.dtype == np.float32
        assert 0.0 <= probs[0] < np.finfo(np.float32).tiny and probs[1] == 1.0
        # The clamp to [1e-7, 1 - 1e-7] bounds the loss either way.
        assert bce_loss(probs, [0.0, 1.0]) == pytest.approx(2e-7, rel=1e-6)
        assert bce_loss(probs, [1.0, 0.0]) == pytest.approx(-2.0 * math.log(1e-7), rel=1e-6)


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function evaluated separately on each sign, as a
    reference for ``_sigmoid``."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_the_masked_formula(self, dtype):
        edges = [0.0, -0.0, 700.0, -700.0, 1e30, -1e30, np.nan, -np.nan, 1e-8, -1e-8, 88.0, -88.0]
        rng = np.random.default_rng(11)
        z = np.concatenate([edges, rng.standard_normal(500) * 20.0]).astype(dtype)
        got = _sigmoid(z)
        assert got.dtype == dtype
        # Equal bits, so NaN matches NaN and a signed zero its sign.
        assert got.tobytes() == masked_sigmoid(z).tobytes()


def tied_problem():
    """150 rows x 40 features; two of every three features take only six
    values, so sorted columns hold long runs of ties."""
    rng = np.random.default_rng(404)
    X = rng.integers(0, 6, (150, 40)) / 5.0
    X[:, ::3] = rng.standard_normal((150, 14))
    y = (X[:, 0] + X[:, 7] - X[:, 20] + 0.8 * rng.standard_normal(150) > 0.5).astype(float)
    return X, y


def is_leaf(forest, i) -> bool:
    return forest.left[i] == i


def tree_nodes(forest, root) -> list[int]:
    """The node indices of the tree at ``root``, pre-order."""
    order, stack = [], [int(root)]
    while stack:
        i = stack.pop()
        order.append(i)
        if not is_leaf(forest, i):
            stack.extend((int(forest.right[i]), int(forest.left[i])))
    return order


def tree_digest(forest, root) -> str:
    """sha256 over (feature, threshold, prob, n) of every node, pre-order; a
    leaf's feature and threshold read None."""
    digest = hashlib.sha256()
    for i in tree_nodes(forest, root):
        split = (None, None)
        if not is_leaf(forest, i):
            split = (int(forest.feature[i]), float(forest.threshold[i]))
        digest.update(repr((*split, float(forest.prob[i]), int(forest.n[i]))).encode())
    return digest.hexdigest()


def per_feature_split(X, y, feature_indices, min_leaf):
    """The split search one feature at a time, as a reference."""
    n = y.shape[0]
    best = None
    for f in feature_indices:
        values = X[:, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        sy = y[order]
        boundaries = np.nonzero(sv[:-1] < sv[1:])[0]
        n_left = boundaries + 1
        n_right = n - n_left
        valid = (n_left >= min_leaf) & (n_right >= min_leaf)
        boundaries, n_left, n_right = boundaries[valid], n_left[valid], n_right[valid]
        if boundaries.size == 0:
            continue
        prefix_pos = np.cumsum(sy)
        pos_left = prefix_pos[boundaries]
        pos_right = prefix_pos[-1] - pos_left
        p_left = pos_left / n_left
        p_right = pos_right / n_right
        cost = (
            n_left * 2.0 * p_left * (1.0 - p_left)
            + n_right * 2.0 * p_right * (1.0 - p_right)
        ) / n
        thresholds = (sv[boundaries] + sv[boundaries + 1]) / 2.0
        j = int(np.lexsort((thresholds, cost))[0])
        candidate = (float(cost[j]), float(thresholds[j]), int(f))
        if best is None or candidate < best:
            best = candidate
    return best


class TestBestSplit:
    @pytest.mark.parametrize("min_leaf", [1, 3])
    def test_matches_the_per_feature_search(self, min_leaf):
        X, y = tied_problem()
        rng = np.random.default_rng(min_leaf)
        for _ in range(40):
            rows = rng.choice(150, size=int(rng.integers(2, 150)), replace=False)
            features = np.sort(rng.choice(40, size=int(rng.integers(1, 41)), replace=False))
            Xs, ys = X[rows], y[rows]
            assert _best_split(Xs[:, features].T, ys, features, min_leaf) == per_feature_split(
                Xs, ys, features, min_leaf
            )

    def test_equal_costs_prefer_lower_threshold_then_lower_feature(self):
        # Features 0, 17 and 33 are identical (17 and 33 in later blocks), and
        # feature 5 separates as well at a higher threshold.
        y = np.array([0.0, 0.0, 1.0, 1.0])
        X = np.zeros((4, 40))
        X[:, [0, 17, 33]] = np.array([1.0, 2.0, 3.0, 4.0])[:, None]
        X[:, 5] = [5.0, 6.0, 7.0, 8.0]
        assert _best_split(X.T, y, np.arange(40), 1) == (0.0, 2.5, 0)
        features = np.array([5, 17, 33])
        assert _best_split(X[:, features].T, y, features, 1) == (0.0, 2.5, 17)

    def test_no_admissible_split(self):
        X = np.array([[1.0], [1.0], [1.0]])
        y = np.array([0.0, 1.0, 0.0])
        assert _best_split(X.T, y, np.array([0]), 1) is None
        assert _best_split(np.array([[1.0, 2.0]]), y[:2], np.array([0]), 2) is None

    # Digests recorded before the split search was vectorized (NumPy 2.4,
    # x86_64); the vectorized search must grow the same trees.
    @pytest.mark.parametrize(
        "min_leaf, expected",
        [
            (1, "8bfe8f9890021ede47863b894e6b03bb1822f24dfd4d0c5507a1298090e65b5e"),
            (3, "cd20c87ecf6816c7b0a0d977c9b6447d73eed7dd84b8ee2b8072fbe38b5e5d15"),
        ],
    )
    def test_tree_matches_recorded_digest(self, min_leaf, expected):
        X, y = tied_problem()
        tree = train_tree(X, y, max_depth=12, min_leaf=min_leaf)
        assert tree_digest(tree, tree.roots[0]) == expected

    @pytest.mark.parametrize(
        "min_leaf, expected",
        [
            (1, "709c6387f41358a3b1fe95ee3b8d3a702af1f3ecc6a490e51fb1c859c8faf173"),
            (3, "a9e88558d0b90e346a9175c47354b6433755873b923f26fceb4da80582efe8be"),
        ],
    )
    def test_forest_matches_recorded_digest(self, min_leaf, expected):
        X, y = tied_problem()
        forest = train_forest(X, y, n_trees=8, seed=21, max_depth=12, min_leaf=min_leaf)
        joined = "".join(tree_digest(forest, root) for root in forest.roots)
        assert hashlib.sha256(joined.encode()).hexdigest() == expected

    # Recorded with the grower that copied each node's rows, before nodes
    # became index arrays: bootstrap rows repeat, so nodes hold duplicates.
    def test_bootstrap_forests_match_recorded_digest(self):
        X, y = tied_problem()
        parts = []
        for min_leaf in (2, 5):
            for max_depth in (3, 12):
                forest = train_forest(
                    X, y, n_trees=6, seed=33, max_depth=max_depth, min_leaf=min_leaf
                )
                parts.extend(tree_digest(forest, root) for root in forest.roots)
        assert hashlib.sha256("".join(parts).encode()).hexdigest() == (
            "65c30571b74a4649e6bfaa1065ce5a9d4366950cdd8b9712ced44fd0b4e9a720"
        )


def walk(forest, root, x) -> float:
    """The leaf probability of one row, by walking the tree from its root and
    comparing with a Python float threshold."""
    i = root
    while not is_leaf(forest, i):
        below = x[forest.feature[i]] < float(forest.threshold[i])
        i = forest.left[i] if below else forest.right[i]
    return forest.prob[i]


def one_tree(forest, k):
    """The forest's ``k``-th tree as a forest of one over the same table."""
    return replace(forest, roots=forest.roots[k : k + 1])


class TestTreesAndForests:
    def test_gini_even_split(self):
        # The split search's cost is the size-weighted child Gini over n.
        values = np.array([[0.0, 0.0, 1.0, 1.0]])
        cost, threshold, feature = _best_split(values, np.array([1.0, 0.0, 1.0, 0.0]), np.arange(1), 1)
        assert (cost, threshold, feature) == (pytest.approx(0.5), 0.5, 0)
        cost, _, _ = _best_split(values, np.array([1.0, 1.0, 0.0, 0.0]), np.arange(1), 1)
        assert cost == 0.0

    def test_one_dimensional_threshold(self):
        X = np.array([[-3.0], [-2.0], [-1.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        tree = train_tree(X, y, max_depth=5)
        root = tree.roots[0]
        assert tree.feature[root] == 0
        assert tree.threshold[root] == pytest.approx(0.0)
        assert is_leaf(tree, tree.left[root]) and is_leaf(tree, tree.right[root])
        preds = (predict_proba(tree, X) >= 0.5).astype(float)
        assert (preds == y).mean() == 1.0

    def test_root_split_matches_exhaustive_oracle(self):
        points = np.array([0.3, 1.1, 2.2, 3.0, 4.4, 5.1, 6.6, 7.2])
        X = points[:, None]
        n = len(points)
        midpoints = (points[:-1] + points[1:]) / 2.0

        def oracle(y: np.ndarray):
            best = None
            for thr in midpoints:
                left = y[points < thr]
                right = y[points >= thr]
                if len(left) == 0 or len(right) == 0:
                    continue
                cost = (
                    len(left) * gini(left) + len(right) * gini(right)
                ) / n
                cand = (cost, thr)
                if best is None or cand < best:
                    best = cand
            return best

        for bits in itertools.product((0.0, 1.0), repeat=8):
            y = np.array(bits)
            if y.min() == y.max():
                continue
            tree = train_tree(X, y, max_depth=1)
            expected = oracle(y)
            assert tree.threshold[tree.roots[0]] == pytest.approx(expected[1])

    def test_depth_and_leaf_limits(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((200, 3))
        y = (X[:, 0] + 0.3 * rng.standard_normal(200) > 0).astype(float)
        tree = train_tree(X, y, max_depth=3, min_leaf=10)

        def walk(i, depth=0):
            assert depth <= 3
            if is_leaf(tree, i):
                assert tree.n[i] >= 10 or depth == 0
                return
            walk(tree.left[i], depth + 1)
            walk(tree.right[i], depth + 1)

        walk(tree.roots[0])

    def test_forest_probability_is_tree_mean(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((60, 3))
        y = (X[:, 0] > 0).astype(float)
        forest = train_forest(X, y, n_trees=5, seed=2)
        probe = rng.standard_normal((10, 3))
        stacked = np.stack([predict_proba(one_tree(forest, k), probe) for k in range(5)])
        assert np.allclose(predict_proba(forest, probe), stacked.mean(axis=0), atol=1e-12)

    def test_forest_prediction_matches_a_per_row_walk(self):
        X, y = tied_problem()
        forest = train_forest(X, y, n_trees=7, seed=8, max_depth=6, min_leaf=2)
        probe = np.vstack([X[:40], np.random.default_rng(9).standard_normal((60, 40))])
        expected = np.zeros(probe.shape[0])
        for k, root in enumerate(forest.roots):
            walked = np.array([walk(forest, root, x) for x in probe])
            assert np.array_equal(predict_proba(one_tree(forest, k), probe), walked)
            expected += walked
        assert np.array_equal(predict_proba(forest, probe), expected / len(forest.roots))

    def test_float32_rows_compare_in_float32_like_a_per_row_walk(self):
        # Rows set to each threshold rounded to float32 fall on the side a
        # float32 comparison puts them, not the side float64 would.
        X, y = tied_problem()
        tree = train_tree(X + np.random.default_rng(4).standard_normal(X.shape) * 1e-3, y, max_depth=5)
        splits = [
            (tree.feature[i], tree.threshold[i])
            for i in tree_nodes(tree, tree.roots[0])
            if not is_leaf(tree, i)
        ]
        probe = np.repeat(X[:1], len(splits), axis=0).astype(np.float32)
        for i, (feature, threshold) in enumerate(splits):
            probe[i, feature] = threshold
        probe = np.vstack([probe, X.astype(np.float32)])
        walked = np.array([walk(tree, tree.roots[0], x) for x in probe])
        assert np.array_equal(predict_proba(tree, probe), walked)

    def test_forest_deterministic(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((50, 3))
        y = (X[:, 0] > 0).astype(float)
        probe = rng.standard_normal((10, 3))
        a = predict_proba(train_forest(X, y, n_trees=4, seed=3), probe)
        b = predict_proba(train_forest(X, y, n_trees=4, seed=3), probe)
        assert np.array_equal(a, b)

    def test_a_fit_keeps_no_feature_matrix_alive(self):
        # Held without the garbage collector: a grower that is a reference
        # cycle keeps the transposed features until a collection.
        rng = np.random.default_rng(12)
        X = rng.standard_normal((400, 128))
        y = (X[:, 0] > 0).astype(float)
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tree = train_tree(X, y)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert tree.n[tree.roots[0]] == 400
        assert kept < X.nbytes

    def test_single_class_rejected(self):
        X = np.zeros((5, 2))
        with pytest.raises(DataError, match="single class"):
            train_tree(X, np.ones(5))
        with pytest.raises(DataError, match="single class"):
            train_forest(X, np.zeros(5))


class TestSvm:
    def test_separable_hinge_converges(self):
        X, y = blobs(0, n=120, margin=1.0)
        model = train_svm(X, y, lam=1e-4, epochs=400, lr=0.5)
        hinge = np.maximum(0.0, 1.0 - (2.0 * y - 1.0) * model.margins(X))
        assert hinge.mean() < 0.01

    def test_probability_surrogate_thresholding(self):
        X, y = blobs(1, n=80)
        model = train_svm(X, y)
        margins = model.margins(X)
        probs = predict_proba(model, X)
        assert np.array_equal(probs >= 0.5, margins >= 0.0)

    def test_deterministic(self):
        X, y = blobs(2, n=40)
        a = train_svm(X, y, epochs=50)
        b = train_svm(X, y, epochs=50)
        assert np.array_equal(a.w, b.w) and a.b == b.b

    def test_single_class(self):
        with pytest.raises(DataError, match="single class"):
            train_svm(np.zeros((4, 2)), np.ones(4))


class TestAdapter:
    def test_adapter_trains_jointly(self):
        X, y = blobs(5, n=80)
        config = TrainConfig(max_epochs=20)
        model, _ = train_with_adapter(X, y, config, hidden_sizes=(5,), seed=3)
        assert not np.array_equal(model.adapter, np.eye(2))
        preds = (predict_proba(model, X) >= 0.5).astype(float)
        assert (preds == y).mean() >= 0.9

    def test_adapter_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((6, 3))
        y = (rng.random(6) < 0.5).astype(float)
        config = TrainConfig(max_epochs=1)
        model, _ = train_with_adapter(X, y, config, hidden_sizes=(4,), batch_size=6, seed=1)
        # One Adam step from identity with summed BCE: verify the step moved
        # the adapter in the direction opposite the finite-difference gradient.
        A = np.eye(3)
        weights, biases = _init_params((3, 4, 1), np.random.default_rng(0))

        def loss(mat):
            _, probs = _forward_stack(weights, biases, X @ mat)
            return bce_loss(probs, y)

        h = 1e-6
        g = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                ap = A.copy()
                am = A.copy()
                ap[i, j] += h
                am[i, j] -= h
                g[i, j] = (loss(ap) - loss(am)) / (2 * h)
        # Independent backprop of the adapter gradient.
        from trialmatch.classifiers import _backward_stack

        acts, probs = _forward_stack(weights, biases, X @ A)
        grads_w = [np.empty_like(w) for w in weights]
        grads_b = [np.empty_like(b) for b in biases]
        input_delta = _backward_stack(
            weights, acts, probs, y, grads_w, grads_b, input_grad=True
        )
        bp = X.T @ input_delta
        assert np.max(np.abs(bp - g)) < 1e-4

    def test_deterministic_under_seed(self):
        X, y = blobs(6, n=50)
        config = TrainConfig(max_epochs=8)
        a, _ = train_with_adapter(X, y, config, hidden_sizes=(4,), seed=13)
        b, _ = train_with_adapter(X, y, config, hidden_sizes=(4,), seed=13)
        assert np.array_equal(a.adapter, b.adapter)

    def test_fit_matches_recorded_digest(self):
        # Recorded like the digests in TestTrainMlp, for the square adapter
        # (starting at the identity) before the narrowing one was removed.
        X, y, validation, config = pinned_problem()
        model, log = train_with_adapter(
            X, y, config, validation=validation, hidden_sizes=(6,), **PINNED_STEP
        )
        assert model.adapter.shape == (5, 5)
        assert (log.best_epoch, log.stopped_epoch) == (4, 12)
        assert params_digest(
            [model.adapter, *model.mlp.weights, *model.mlp.biases]
        ) == "8e7c8fa7bfee2311fb2adbd3c32a51a59adda975a54e870634f1992bb8d7a303"


class TestPredictProba:
    def test_repeat_deterministic_and_sized(self):
        X, y = blobs(8, n=40)
        model, _ = train_mlp(X, y, TrainConfig(max_epochs=5), hidden_sizes=(4,), seed=1)
        probe = np.random.default_rng(0).standard_normal((7, 2))
        a = predict_proba(model, probe)
        b = predict_proba(model, probe)
        assert np.array_equal(a, b)
        assert a.shape == (7,)
        assert np.all((a >= 0) & (a <= 1))

    def test_pure_leaf_probabilities(self):
        X = np.array([[-1.0], [-2.0], [1.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        tree = train_tree(X, y)
        probs = predict_proba(tree, X)
        assert set(probs.tolist()) <= {0.0, 1.0}

    def test_dim_mismatch(self):
        X, y = blobs(9, n=30)
        model, _ = train_mlp(X, y, TrainConfig(max_epochs=3), hidden_sizes=(3,), seed=1)
        with pytest.raises(DataError, match="features have 5 columns, model expects"):
            predict_proba(model, np.zeros((2, 5)))
