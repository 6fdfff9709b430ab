"""Trainable downstream predictors with one prediction contract.

Four model families: a rectifier MLP trained with summed binary cross-entropy
and Adam, a Gini decision tree, a bootstrap random forest, and a linear SVM
trained by subgradient descent on the regularized hinge loss. A trainable
linear adapter in front of the MLP serves as the desk-scale analog of joint
representation fine-tuning; the frozen setting is the plain MLP.

Training is a single logical thread and fully deterministic under its seed;
trained models are immutable and safe for concurrent prediction. The MLP trains
in the dtype of its features: a float32 array trains in float32, and anything
else is converted to float64 and trains in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, DimensionMismatchError, SingleClassError

DEFAULT_MLP_HIDDEN = (256, 64)
EARLY_STOP_MIN_DELTA = 1e-5


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule knobs for gradient-trained models.

    The loss is summed (not averaged) over each batch, so gradient magnitudes
    scale with batch size; the default learning rate is calibrated to the
    default batch size of 32.
    """

    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    max_epochs: int = 200
    batch_size: int = 32
    patience: int = 10
    seed: int = 0
    prob_clamp_epsilon: float = 1e-7

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ConfigError("adam betas must lie in (0, 1)")
        if self.adam_epsilon <= 0 or self.prob_clamp_epsilon <= 0:
            raise ConfigError("epsilons must be positive")
        if self.max_epochs <= 0 or self.batch_size <= 0 or self.patience <= 0:
            raise ConfigError("max_epochs, batch_size, and patience must be positive")


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _as_features(features, what: str = "features") -> np.ndarray:
    """A finite 2-D array: a float32 array stays float32, anything else
    becomes float64."""
    if isinstance(features, np.ndarray) and features.dtype == np.float32:
        X = features
    else:
        X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise DataError(f"{what} must be a 2-D array, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise DataError(f"{what} contain non-finite values")
    return X


def _as_labels(labels, n: int, dtype=np.float64) -> np.ndarray:
    y = np.asarray(labels, dtype=dtype).reshape(-1)
    if y.shape[0] != n:
        raise DataError(f"{n} feature rows but {y.shape[0]} labels")
    if not np.all(np.isin(y, (0.0, 1.0))):
        raise DataError("labels must be 0 or 1")
    return y


def _require_both_classes(y: np.ndarray) -> None:
    if y.min() == y.max():
        raise SingleClassError(
            "training data contains a single class; ranking metrics downstream "
            "would be undefined"
        )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

@dataclass
class MLPModel:
    """Affine-rectifier stack with a logistic output unit."""

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_features(self) -> int:
        return self.layer_sizes[0]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        _, probs = _forward_stack(self.weights, self.biases, X)
        return probs


def _init_params(
    layer_sizes: Sequence[int], rng: np.random.Generator
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    weights, biases = [], []
    for i in range(len(layer_sizes) - 1):
        fan_in, fan_out = layer_sizes[i], layer_sizes[i + 1]
        # He scaling for rectifier layers, smaller for the logistic head.
        scale = math.sqrt(2.0 / fan_in) if i < len(layer_sizes) - 2 else math.sqrt(1.0 / fan_in)
        weights.append(rng.standard_normal((fan_in, fan_out)) * scale)
        biases.append(np.zeros(fan_out))
    return weights, biases


def _forward_stack(
    weights: Sequence[np.ndarray], biases: Sequence[np.ndarray], X: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Returns (layer activations incl. input, output probabilities)."""
    activations = [X]
    a = X
    for i in range(len(weights) - 1):
        a = np.maximum(a @ weights[i] + biases[i], 0.0)
        activations.append(a)
    z = a @ weights[-1] + biases[-1]
    return activations, _sigmoid(z[:, 0])


def _backward_stack(
    weights: Sequence[np.ndarray],
    activations: Sequence[np.ndarray],
    probs: np.ndarray,
    y: np.ndarray,
    grads_w: Sequence[np.ndarray],
    grads_b: Sequence[np.ndarray],
    input_grad: bool = False,
) -> Optional[np.ndarray]:
    """Exact gradient of the summed BCE, written into ``grads_w``/``grads_b``.

    Returns dLoss/dInput when ``input_grad`` is set, else None. The
    probability clamp lives in the loss value only, so the gradient keeps
    flowing at saturated outputs.
    """
    delta = (probs - y)[:, None]
    for i in reversed(range(len(weights))):
        np.matmul(activations[i].T, delta, out=grads_w[i])
        np.sum(delta, axis=0, out=grads_b[i])
        if i > 0:
            delta = (delta @ weights[i].T) * (activations[i] > 0)
    return delta @ weights[0].T if input_grad else None


def mlp_forward(model: MLPModel, x: np.ndarray) -> float:
    """Probability for a single feature vector."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != model.n_features:
        raise DimensionMismatchError(
            f"input has {x.shape[0]} features, model expects {model.n_features}"
        )
    _, probs = _forward_stack(model.weights, model.biases, x[None, :])
    return float(probs[0])


def bce_loss(
    probs: Sequence[float], labels: Sequence[float], clamp_epsilon: float = 1e-7
) -> float:
    """Summed binary cross-entropy with probabilities clamped to [eps, 1-eps]."""
    p = np.asarray(probs, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if p.shape != y.shape:
        raise DataError(f"{p.shape[0]} probabilities but {y.shape[0]} labels")
    p = np.clip(p, clamp_epsilon, 1.0 - clamp_epsilon)
    return float(-np.sum(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def mlp_grad(
    model: MLPModel, batch: tuple[np.ndarray, np.ndarray]
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Backpropagation gradient of the summed BCE over one batch.

    Returns (weight gradients, bias gradients) shaped like the model's
    parameters.
    """
    X, y = batch
    X = _as_features(X)
    y = _as_labels(y, X.shape[0], X.dtype)
    if X.shape[0] == 0:
        raise DataError("gradient of an empty batch is undefined")
    if X.shape[1] != model.n_features:
        raise DimensionMismatchError(
            f"batch has {X.shape[1]} features, model expects {model.n_features}"
        )
    activations, probs = _forward_stack(model.weights, model.biases, X)
    grads_w = [np.empty_like(w) for w in model.weights]
    grads_b = [np.empty_like(b) for b in model.biases]
    _backward_stack(model.weights, activations, probs, y, grads_w, grads_b)
    return grads_w, grads_b


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """First and second moments of one flat parameter vector, and the step
    count; two scratch rows of the same length and dtype let a step allocate
    nothing."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.scratch = np.empty((2, *self.m.shape), dtype=self.m.dtype)

    @classmethod
    def zeros_like(cls, params: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params))


def adam_step(
    params: np.ndarray, grads: np.ndarray, state: AdamState, config: TrainConfig
) -> None:
    """One bias-corrected Adam update, in place on ``params`` and ``state``.

    ``params``, ``grads`` and the moments are flat vectors of one shape. The
    elementwise order is that of the textbook update, so every bit matches
    it: m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g),
    p -= lr*(m/c1) / (sqrt(v/c2) + eps) with c = 1 - b**t.
    """
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise DataError(
            f"gradient {grads.shape} and moments {state.m.shape} must match "
            f"parameters {params.shape}"
        )
    b1, b2 = config.adam_beta1, config.adam_beta2
    state.t += 1
    correction1 = 1.0 - b1**state.t
    correction2 = 1.0 - b2**state.t
    step, denom = state.scratch
    m, v = state.m, state.v
    np.multiply(grads, 1.0 - b1, out=step)
    m *= b1
    m += step
    np.multiply(grads, grads, out=denom)
    denom *= 1.0 - b2
    v *= b2
    v += denom
    np.divide(m, correction1, out=step)
    step *= config.learning_rate
    np.divide(v, correction2, out=denom)
    np.sqrt(denom, out=denom)
    denom += config.adam_epsilon
    step /= denom
    params -= step


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

def _split_flat(flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """Reshaped views of consecutive pieces of ``flat``, one per shape."""
    views, offset = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return views


@dataclass
class TrainingLog:
    """Per-epoch record of a gradient-trained fit.

    Each ``history`` row holds ``epoch`` and ``monitor_loss`` (mean BCE on
    the monitored set). Without a validation set the monitored set is the
    training set, and the row also carries that value as ``train_loss``.
    """

    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0
    monitor: str = "train"


@dataclass(frozen=True)
class LinearAdapter:
    """Input transform trained jointly with the MLP (fine-tuning analog)."""

    matrix: np.ndarray  # (d_in, d_out)


@dataclass
class AdapterModel:
    adapter: LinearAdapter
    mlp: MLPModel

    @property
    def n_features(self) -> int:
        return self.adapter.matrix.shape[0]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.mlp.predict_proba(X @ self.adapter.matrix)


def _train_core(
    features,
    labels,
    config: TrainConfig,
    validation: Optional[tuple[np.ndarray, np.ndarray]],
    hidden_sizes: Sequence[int],
    adapter_dim: Optional[int],
) -> tuple[Optional[np.ndarray], MLPModel, TrainingLog]:
    X = _as_features(features)
    dtype = X.dtype  # every array below is built in the features' dtype
    n, d = X.shape
    if n < 2:
        raise DataError("training needs at least 2 samples")
    y = _as_labels(labels, n, dtype)
    _require_both_classes(y)

    if validation is not None:
        val_x = _as_features(validation[0], "validation features").astype(dtype, copy=False)
        val_y = _as_labels(validation[1], val_x.shape[0], dtype)
        monitor = "validation"
    else:
        val_x, val_y = X, y
        monitor = "train"

    # Fixed spawn structure keeps MLP init and shuffles identical whether or
    # not an adapter stream is consumed.
    init_ss, shuffle_ss, adapter_ss = np.random.SeedSequence(config.seed).spawn(3)
    rng_init = np.random.default_rng(init_ss)
    rng_shuffle = np.random.default_rng(shuffle_ss)

    if adapter_dim is None:
        adapter = None
        input_dim = d
    else:
        input_dim = adapter_dim
        if adapter_dim == d:
            adapter = np.eye(d, dtype=dtype)
        else:
            adapter = np.random.default_rng(adapter_ss).standard_normal(
                (d, adapter_dim)
            ) * math.sqrt(1.0 / d)

    # The initial values are drawn in float64 whatever the dtype, so both
    # dtypes start from the same draws.
    weights, biases = _init_params((input_dim, *hidden_sizes, 1), rng_init)
    n_layers = len(weights)
    # Parameters, gradient and best snapshot are one flat vector each; the
    # weights, biases and adapter are reshaped views into them.
    trained = [*weights, *biases, *([] if adapter is None else [adapter])]
    shapes = [p.shape for p in trained]
    params = np.concatenate([p.ravel() for p in trained], dtype=dtype)
    grads = np.empty_like(params)
    best_params = params.copy()
    param_views, grad_views = _split_flat(params, shapes), _split_flat(grads, shapes)
    weights, biases = param_views[:n_layers], param_views[n_layers : 2 * n_layers]
    grads_w, grads_b = grad_views[:n_layers], grad_views[n_layers : 2 * n_layers]
    if adapter is not None:
        adapter, grad_adapter = param_views[-1], grad_views[-1]

    def transform(Z: np.ndarray) -> np.ndarray:
        return Z if adapter is None else Z @ adapter

    def monitor_loss() -> float:
        _, probs = _forward_stack(weights, biases, transform(val_x))
        return bce_loss(probs, val_y, config.prob_clamp_epsilon) / len(val_y)

    state = AdamState.zeros_like(params)
    log = TrainingLog(monitor=monitor)
    best_loss = math.inf
    best_epoch = 0
    bad_epochs = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng_shuffle.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            Xb, yb = X[idx], y[idx]
            activations, probs = _forward_stack(weights, biases, transform(Xb))
            input_delta = _backward_stack(
                weights, activations, probs, yb, grads_w, grads_b, adapter is not None
            )
            if adapter is not None:
                np.matmul(Xb.T, input_delta, out=grad_adapter)
            adam_step(params, grads, state, config)

        current = monitor_loss()
        row = {"epoch": epoch, "monitor_loss": current}
        if validation is None:
            row["train_loss"] = current  # the monitored set is the training set
        log.history.append(row)
        log.stopped_epoch = epoch
        if best_loss - current >= EARLY_STOP_MIN_DELTA:
            best_loss = current
            np.copyto(best_params, params)
            best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= config.patience:
                break

    np.copyto(params, best_params)
    log.best_epoch = best_epoch
    model = MLPModel(
        layer_sizes=(input_dim, *hidden_sizes, 1),
        weights=weights,
        biases=biases,
    )
    return adapter, model, log


def train_mlp(
    features,
    labels,
    config: TrainConfig = TrainConfig(),
    validation: Optional[tuple[np.ndarray, np.ndarray]] = None,
    hidden_sizes: Sequence[int] = DEFAULT_MLP_HIDDEN,
) -> tuple[MLPModel, TrainingLog]:
    """Mini-batch Adam on summed BCE with early stopping.

    Trains in the dtype of ``features``: a float32 array gives a float32
    fit, anything else is converted to float64. Stops when the monitored
    loss (validation if given, else training) fails to improve by at least
    1e-5 for ``patience`` epochs; returns the snapshot from the best
    monitored epoch. Each epoch costs one forward pass over the
    monitored set: the log's history rows carry ``monitor_loss``, plus
    ``train_loss`` (the same value) when there is no validation set. Fully
    deterministic under ``config.seed``.
    """
    _, model, log = _train_core(features, labels, config, validation, hidden_sizes, None)
    return model, log


def train_with_adapter(
    features,
    labels,
    adapter_dims: tuple[int, int],
    config: TrainConfig = TrainConfig(),
    validation: Optional[tuple[np.ndarray, np.ndarray]] = None,
    hidden_sizes: Sequence[int] = DEFAULT_MLP_HIDDEN,
) -> tuple[AdapterModel, TrainingLog]:
    """Jointly optimize a linear input adapter and the MLP.

    A square adapter starts at the identity, a narrowing one from scaled
    Gaussian draws. Like ``train_mlp``, trains in the features' dtype
    (float32 or float64), and the adapter has that dtype too.
    """
    d_in, d_out = adapter_dims
    X = _as_features(features)
    if X.shape[1] != d_in:
        raise DimensionMismatchError(
            f"features have {X.shape[1]} columns, adapter expects {d_in}"
        )
    if d_out < 1:
        raise ConfigError("adapter output dimension must be positive")
    adapter, model, log = _train_core(X, labels, config, validation, hidden_sizes, d_out)
    assert adapter is not None
    return AdapterModel(adapter=LinearAdapter(matrix=adapter), mlp=model), log


# ---------------------------------------------------------------------------
# Decision tree and random forest
# ---------------------------------------------------------------------------

@dataclass
class TreeNode:
    prob: float
    n: int
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


@dataclass
class DecisionTree:
    root: TreeNode
    n_features: int

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        for i in range(X.shape[0]):
            node = self.root
            while not node.is_leaf:
                node = node.left if X[i, node.feature] < node.threshold else node.right
            out[i] = node.prob
        return out


def gini_impurity(labels: Sequence[float]) -> float:
    """2 p (1 - p) for binary labels; 0 for a pure node."""
    y = np.asarray(labels, dtype=np.float64)
    if y.size == 0:
        return 0.0
    p = float(y.mean())
    return 2.0 * p * (1.0 - p)


_SPLIT_BLOCK = 16  # features searched together; bounds the (block x n) temporaries


def _best_split(
    X: np.ndarray, y: np.ndarray, feature_indices: np.ndarray, min_leaf: int
) -> Optional[tuple[float, float, int]]:
    """Exhaustive threshold search at midpoints of sorted distinct values.

    Returns (weighted child Gini, threshold, feature) minimizing the cost;
    ties prefer the lower threshold, then the lower feature index. Features
    are searched in blocks of ``_SPLIT_BLOCK``: one stable sort, one prefix
    sum and one cost array per block, with each block's best candidate kept.
    A split after sorted position ``i`` leaves ``i + 1`` rows on the left, so
    only positions ``min_leaf - 1 .. n - min_leaf - 1`` can satisfy the leaf
    limit.
    """
    n = y.shape[0]
    lo, hi = min_leaf - 1, n - min_leaf  # candidate positions lo .. hi - 1
    if lo >= hi:
        return None
    winners: list[tuple[float, float, int]] = []
    for start in range(0, len(feature_indices), _SPLIT_BLOCK):
        block = feature_indices[start : start + _SPLIT_BLOCK]
        values = X[:, block].T  # one row per feature
        order = np.argsort(values, axis=1, kind="stable")
        sv = np.take_along_axis(values, order, axis=1)
        prefix_pos = np.cumsum(y[order], axis=1)
        rows, cols = np.nonzero(sv[:, lo:hi] < sv[:, lo + 1 : hi + 1])
        if rows.size == 0:
            continue
        boundaries = cols + lo
        n_left = boundaries + 1
        n_right = n - n_left
        pos_left = prefix_pos[rows, boundaries]
        pos_right = prefix_pos[rows, -1] - pos_left
        p_left = pos_left / n_left
        p_right = pos_right / n_right
        cost = (
            n_left * 2.0 * p_left * (1.0 - p_left)
            + n_right * 2.0 * p_right * (1.0 - p_right)
        ) / n
        thresholds = (sv[rows, boundaries] + sv[rows, boundaries + 1]) / 2.0
        features = block[rows]
        j = int(np.lexsort((features, thresholds, cost))[0])
        winners.append((float(cost[j]), float(thresholds[j]), int(features[j])))
    return min(winners, default=None)


def _grow_tree(
    X: np.ndarray,
    y: np.ndarray,
    depth: int,
    max_depth: int,
    min_leaf: int,
    rng: Optional[np.random.Generator],
    n_feature_subsample: Optional[int],
) -> TreeNode:
    node = TreeNode(prob=float(y.mean()), n=y.shape[0])
    if depth >= max_depth or y.min() == y.max() or y.shape[0] < 2 * min_leaf:
        return node
    d = X.shape[1]
    if rng is not None and n_feature_subsample is not None and n_feature_subsample < d:
        features = np.sort(rng.choice(d, size=n_feature_subsample, replace=False))
    else:
        features = np.arange(d)
    best = _best_split(X, y, features, min_leaf)
    if best is None:
        return node
    _, threshold, feature = best
    mask = X[:, feature] < threshold
    node.feature = feature
    node.threshold = threshold
    node.left = _grow_tree(X[mask], y[mask], depth + 1, max_depth, min_leaf, rng, n_feature_subsample)
    node.right = _grow_tree(X[~mask], y[~mask], depth + 1, max_depth, min_leaf, rng, n_feature_subsample)
    return node


def train_tree(
    features, labels, max_depth: int = 12, min_leaf: int = 1
) -> DecisionTree:
    """Greedy Gini tree; stops on purity, depth, or leaf-size limits."""
    if max_depth < 1 or min_leaf < 1:
        raise ConfigError("max_depth and min_leaf must be positive")
    X = _as_features(features)
    y = _as_labels(labels, X.shape[0])
    _require_both_classes(y)
    root = _grow_tree(X, y, 0, max_depth, min_leaf, None, None)
    return DecisionTree(root=root, n_features=X.shape[1])


@dataclass
class RandomForest:
    trees: list[DecisionTree]
    n_features: int

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        acc = np.zeros(X.shape[0])
        for tree in self.trees:
            acc += tree.predict_proba(X)
        return acc / len(self.trees)


def train_forest(
    features,
    labels,
    n_trees: int = 30,
    seed: int = 0,
    max_depth: int = 12,
    min_leaf: int = 1,
    bootstrap: bool = True,
    feature_subsample: bool = True,
) -> RandomForest:
    """Bootstrap forest with per-split subsampling of ceil(sqrt(d)) features.

    Per-tree generators derive from independent seed-sequence children, so
    tree training could run in any order with identical results. With one tree
    and both randomizations off, the forest reduces exactly to train_tree.
    """
    if n_trees < 1:
        raise ConfigError("forest needs at least one tree")
    X = _as_features(features)
    y = _as_labels(labels, X.shape[0])
    _require_both_classes(y)
    d = X.shape[1]
    n_sub = int(math.ceil(math.sqrt(d))) if feature_subsample else None
    children = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    for child in children:
        rng = np.random.default_rng(child)
        if bootstrap:
            idx = rng.integers(0, X.shape[0], size=X.shape[0])
            Xb, yb = X[idx], y[idx]
        else:
            Xb, yb = X, y
        root = _grow_tree(
            Xb, yb, 0, max_depth, min_leaf, rng if feature_subsample else None, n_sub
        )
        trees.append(DecisionTree(root=root, n_features=d))
    return RandomForest(trees=trees, n_features=d)


# ---------------------------------------------------------------------------
# Linear SVM
# ---------------------------------------------------------------------------

@dataclass
class LinearSVM:
    """Hinge-loss linear separator.

    ``predict_proba`` is the logistic of the margin, a surrogate suitable for
    threshold-free ranking metrics only; at the default 0.5 threshold it
    coincides with sign(margin).
    """

    w: np.ndarray
    b: float

    @property
    def n_features(self) -> int:
        return self.w.shape[0]

    def margins(self, X: np.ndarray) -> np.ndarray:
        return X @ self.w + self.b

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _sigmoid(self.margins(X))


def svm_hinge(model: LinearSVM, features, labels) -> float:
    """Mean hinge loss (regularization excluded)."""
    X = _as_features(features)
    y = _as_labels(labels, X.shape[0])
    signed = 2.0 * y - 1.0
    return float(np.mean(np.maximum(0.0, 1.0 - signed * model.margins(X))))


def train_svm(
    features,
    labels,
    lam: float = 1e-4,
    epochs: int = 400,
    lr: float = 0.5,
    seed: int = 0,
) -> LinearSVM:
    """Full-batch subgradient descent on the L2-regularized hinge loss.

    The step size decays as lr / sqrt(t + 1). The seed is accepted for
    interface uniformity; the full-batch schedule consumes no randomness.
    """
    if lam < 0 or lr <= 0 or epochs < 1:
        raise ConfigError("lam must be >= 0, lr > 0, epochs >= 1")
    X = _as_features(features)
    y = _as_labels(labels, X.shape[0])
    _require_both_classes(y)
    signed = 2.0 * y - 1.0
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    for t in range(epochs):
        margins = signed * (X @ w + b)
        active = margins < 1.0
        grad_w = lam * w - (X[active].T @ signed[active]) / n
        grad_b = -float(signed[active].sum()) / n
        step = lr / math.sqrt(t + 1.0)
        w = w - step * grad_w
        b = b - step * grad_b
    return LinearSVM(w=w, b=b)


# ---------------------------------------------------------------------------
# Uniform prediction
# ---------------------------------------------------------------------------

TrainedClassifier = MLPModel | DecisionTree | RandomForest | LinearSVM | AdapterModel


def predict_proba(model: TrainedClassifier, features) -> np.ndarray:
    """Probabilities in [0, 1], one per feature row, for any trained model."""
    X = _as_features(features)
    expected = model.n_features
    if X.shape[1] != expected:
        raise DimensionMismatchError(
            f"features have {X.shape[1]} columns, model expects {expected}"
        )
    probs = model.predict_proba(X)
    return np.clip(probs, 0.0, 1.0)
