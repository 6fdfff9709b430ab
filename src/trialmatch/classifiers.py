"""Trainable downstream predictors with one prediction contract.

Four model families: a rectifier MLP trained with summed binary cross-entropy
and Adam, a Gini decision tree, a bootstrap random forest, and a linear SVM
trained by subgradient descent on the regularized hinge loss. A trainable
square linear adapter, starting at the identity and trained jointly with the
MLP, serves as the desk-scale analog of representation fine-tuning; it is the
``adapter`` field of ``MLPModel``, and the frozen setting leaves it unset.

Training is a single logical thread and fully deterministic under its seed;
trained models are immutable and safe for concurrent prediction. The MLP and
its adapter train in float32 whatever the features' dtype; every other fit and
every prediction works in float64.

A fitted tree or forest is one ``Forest``: a node table of arrays (split
feature, threshold, left and right child, leaf probability) with one root
per tree, where a leaf is its own child; a tree is a forest of one. Trees
grow array-at-a-time, appending nodes to the table in depth-first preorder.
The features are transposed once per fit, a node's samples are an array of
indices, and a split search gathers only the drawn features at those samples
and sorts them a block of features at a time, so no node copies the feature
matrix. Prediction routes every row through every tree at once, one level
per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DataError, as_labels, as_matrix

DEFAULT_MLP_HIDDEN = (256, 64)
EARLY_STOP_MIN_DELTA = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """The MLP's epoch schedule, the part of its training a config sets:
    at most ``max_epochs`` epochs, stopping after ``patience`` epochs without
    improvement. The same schedule trains the plain MLP and the one behind a
    square adapter; the learning rate, batch size and seed are keyword
    parameters of ``train_mlp`` and ``train_with_adapter``."""

    max_epochs: int = 200
    patience: int = 10

    def __post_init__(self) -> None:
        if self.max_epochs <= 0 or self.patience <= 0:
            raise ConfigError("max_epochs and patience must be positive")


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _as_float32(features, what: str = "features") -> np.ndarray:
    """``as_matrix`` cast to float32, the MLP's dtype; a value beyond
    float32's range fails instead of turning into inf."""
    with np.errstate(over="ignore"):
        X = as_matrix(features, what).astype(np.float32)
    if not np.all(np.isfinite(X)):
        raise DataError(f"{what} exceed the float32 range the MLP trains in")
    return X


def _require_both_classes(y: np.ndarray) -> None:
    if y.min() == y.max():
        raise DataError(
            "training data contains a single class; ranking metrics downstream "
            "would be undefined"
        )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """The logistic function in the dtype of ``z``; ``exp`` only ever sees
    -|z|, so it cannot overflow. ``minimum(z, -z)`` is -|z| but keeps the sign
    of a NaN, so every bit matches 1/(1+exp(-z)) for z >= 0 and
    exp(z)/(1+exp(z)) otherwise."""
    e = np.exp(np.minimum(z, -z))
    denom = 1.0 + e
    return np.where(z >= 0, 1.0 / denom, e / denom)


# ---------------------------------------------------------------------------
# MLP
# ---------------------------------------------------------------------------

@dataclass
class MLPModel:
    """Affine-rectifier stack with a logistic output unit, behind the square
    ``adapter`` (d, d) that maps its input first when one was trained."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    adapter: Optional[np.ndarray] = None

    @property
    def n_features(self) -> int:
        return self.weights[0].shape[0]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.adapter is not None:
            X = X @ self.adapter
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
    """Returns (layer activations incl. input, output probabilities). The
    bias and the rectifier act in place on each layer's product."""
    activations = [X]
    a = X
    for i in range(len(weights) - 1):
        a = a @ weights[i]
        a += biases[i]
        np.maximum(a, 0.0, out=a)
        activations.append(a)
    z = a @ weights[-1]
    z += biases[-1]
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
    flowing at saturated outputs. Every delta is a C-contiguous product, so
    the bias-gradient reduction sums in one fixed order.
    """
    delta = (probs - y)[:, None]
    for i in reversed(range(len(weights))):
        np.matmul(activations[i].T, delta, out=grads_w[i])
        np.add.reduce(delta, axis=0, out=grads_b[i])
        if i > 0:
            delta = delta @ weights[i].T
            delta *= activations[i] > 0
    return delta @ weights[0].T if input_grad else None


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
    params: np.ndarray, grads: np.ndarray, state: AdamState, learning_rate: float
) -> None:
    """One bias-corrected Adam update, in place on ``params`` and ``state``,
    with betas ``ADAM_BETA1``/``ADAM_BETA2`` and ``ADAM_EPSILON``.

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
    b1, b2 = ADAM_BETA1, ADAM_BETA2
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
    step *= learning_rate
    np.divide(v, correction2, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPSILON
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
    """Per-epoch record of a gradient-trained fit: ``losses[i]`` is the mean
    BCE on the monitored set after epoch ``i + 1``; that set is the
    validation set if the caller gave one, else the training set."""

    losses: list[float] = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0


def _train_core(
    features,
    labels,
    config: TrainConfig,
    validation: Optional[tuple[np.ndarray, np.ndarray]],
    hidden_sizes: Sequence[int],
    with_adapter: bool,
    learning_rate: float,
    batch_size: int,
    seed: int,
) -> tuple[MLPModel, TrainingLog]:
    if learning_rate <= 0 or batch_size <= 0:
        raise ConfigError("learning_rate and batch_size must be positive")
    X = _as_float32(features)
    n, d = X.shape
    if n < 2:
        raise DataError("training needs at least 2 samples")
    y = as_labels(labels, n, X.dtype)
    _require_both_classes(y)

    if validation is not None:
        val_x = _as_float32(validation[0], "validation features")
        if val_x.shape[1] != d:
            raise DataError(f"validation features have {val_x.shape[1]} columns, features {d}")
        val_y = as_labels(validation[1], val_x.shape[0], X.dtype)
    else:
        val_x, val_y = X, y

    init_ss, shuffle_ss = np.random.SeedSequence(seed).spawn(2)
    rng_init = np.random.default_rng(init_ss)
    rng_shuffle = np.random.default_rng(shuffle_ss)
    adapter = np.eye(d) if with_adapter else None

    # The initial values are drawn in float64 and rounded once, into the
    # float32 parameter vector.
    weights, biases = _init_params((d, *hidden_sizes, 1), rng_init)
    n_layers = len(weights)
    # Parameters, gradient and best snapshot are one flat vector each; the
    # weights, biases and adapter are reshaped views into them.
    trained = [*weights, *biases, *([] if adapter is None else [adapter])]
    shapes = [p.shape for p in trained]
    params = np.concatenate([p.ravel() for p in trained], dtype=X.dtype)
    grads = np.empty_like(params)
    best_params = params.copy()
    param_views, grad_views = _split_flat(params, shapes), _split_flat(grads, shapes)
    weights, biases = param_views[:n_layers], param_views[n_layers : 2 * n_layers]
    grads_w, grads_b = grad_views[:n_layers], grad_views[n_layers : 2 * n_layers]
    if adapter is not None:
        adapter, grad_adapter = param_views[-1], grad_views[-1]
    # Views into ``params``, so the model always holds the current values.
    model = MLPModel(weights=weights, biases=biases, adapter=adapter)

    state = AdamState.zeros_like(params)
    log = TrainingLog()
    best_loss = math.inf
    best_epoch = 0
    bad_epochs = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng_shuffle.permutation(n)
        # One gather per epoch; each batch is a contiguous slice of it.
        X_epoch, y_epoch = X[order], y[order]
        for start in range(0, n, batch_size):
            Xb = X_epoch[start : start + batch_size]
            yb = y_epoch[start : start + batch_size]
            inputs = Xb if adapter is None else Xb @ adapter
            activations, probs = _forward_stack(weights, biases, inputs)
            input_delta = _backward_stack(
                weights, activations, probs, yb, grads_w, grads_b, adapter is not None
            )
            if adapter is not None:
                np.matmul(Xb.T, input_delta, out=grad_adapter)
            adam_step(params, grads, state, learning_rate)

        current = bce_loss(model.predict_proba(val_x), val_y) / len(val_y)
        log.losses.append(current)
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
    return model, log


def train_mlp(
    features,
    labels,
    config: TrainConfig = TrainConfig(),
    validation: Optional[tuple[np.ndarray, np.ndarray]] = None,
    hidden_sizes: Sequence[int] = DEFAULT_MLP_HIDDEN,
    *,
    learning_rate: float = 1e-3,
    batch_size: int = 32,
    seed: int = 0,
) -> tuple[MLPModel, TrainingLog]:
    """Mini-batch Adam on summed BCE with early stopping.

    The loss is summed (not averaged) over each batch, so gradient
    magnitudes scale with ``batch_size``; the default learning rate is
    calibrated to the default batch size. Trains in float32: the training
    and validation features are cast to it, and a value beyond its range is
    a ``DataError``. Stops when the monitored loss (validation if
    given, else training) fails to improve by at least 1e-5 for
    ``config.patience`` epochs; returns the snapshot from the best monitored
    epoch. Each epoch costs one forward pass over the monitored set, whose
    mean loss the log records. Fully deterministic under ``seed``.
    """
    return _train_core(
        features, labels, config, validation, hidden_sizes, False, learning_rate, batch_size, seed
    )


def train_with_adapter(
    features,
    labels,
    config: TrainConfig = TrainConfig(),
    validation: Optional[tuple[np.ndarray, np.ndarray]] = None,
    hidden_sizes: Sequence[int] = DEFAULT_MLP_HIDDEN,
    *,
    learning_rate: float = 1e-3,
    batch_size: int = 32,
    seed: int = 0,
) -> tuple[MLPModel, TrainingLog]:
    """Jointly optimize a square linear input adapter, which starts at the
    identity, and the MLP, with ``train_mlp``'s schedule, parameters and
    float32 fit; the returned model's ``adapter`` is the trained one."""
    return _train_core(
        features, labels, config, validation, hidden_sizes, True, learning_rate, batch_size, seed
    )


# ---------------------------------------------------------------------------
# Decision tree and random forest
# ---------------------------------------------------------------------------

@dataclass
class Forest:
    """Trees as one node table; a single tree is a forest of one.

    Node ``i`` sends a row to ``left[i]`` if ``row[feature[i]] <
    threshold[i]`` and to ``right[i]`` if not; ``prob[i]`` is the positive
    share of the training samples that reach it. A leaf is its own child, so
    ``depth`` steps from a tree's root in ``roots`` reach every row's leaf.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prob: np.ndarray
    roots: np.ndarray
    depth: int
    n_features: int

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        rows = np.arange(X.shape[0])
        at = np.repeat(self.roots[:, None], X.shape[0], axis=1)  # (trees, rows)
        for _ in range(self.depth):
            below = X[rows, self.feature[at]] < self.threshold[at]
            at = np.where(below, self.left[at], self.right[at])
        # Summed tree by tree, then divided once: a forest of one returns its
        # leaves' probabilities unchanged.
        acc = np.zeros(X.shape[0])
        for leaf_probs in self.prob[at]:
            acc += leaf_probs
        return acc / len(self.roots)


_SPLIT_BLOCK = 16  # features sorted together; bounds the (block x n) temporaries


def _best_split(
    values: np.ndarray, y: np.ndarray, features: np.ndarray, min_leaf: int
) -> Optional[tuple[float, float, int]]:
    """Exhaustive threshold search at midpoints of sorted distinct values.

    ``values`` holds one row per candidate feature (row ``k`` is feature
    ``features[k]``) over a node's samples, and ``y`` their labels. Returns
    (weighted child Gini, threshold, feature) minimizing the cost; ties
    prefer the lower threshold, then the lower feature index.

    Rows are searched in blocks of ``_SPLIT_BLOCK``. Each row is sorted once
    and the cost is computed at every sorted position. A split after
    position ``i`` leaves ``i + 1`` rows on the left, so only positions
    ``min_leaf - 1 .. n - min_leaf - 1`` can satisfy the leaf limit, and a
    position whose next value is equal costs inf. The order of equal values
    is therefore immaterial: the last position of a run counts the whole
    run. A row's first minimum is its lowest threshold, so one ``lexsort``
    over the rows' winners breaks the remaining ties.
    """
    n = y.shape[0]
    lo, hi = min_leaf - 1, n - min_leaf  # candidate positions lo .. hi - 1
    if lo >= hi:
        return None
    n_left = np.arange(lo + 1, hi + 1)
    n_right = n - n_left
    found = []  # (cost, threshold, feature) of each row's first minimum
    for start in range(0, len(features), _SPLIT_BLOCK):
        block = values[start : start + _SPLIT_BLOCK]
        order = np.argsort(block, axis=1)
        sv = block[np.arange(block.shape[0])[:, None], order]
        prefix_pos = np.cumsum(y[order], axis=1)
        pos_left = prefix_pos[:, lo:hi]
        pos_right = prefix_pos[:, -1:] - pos_left
        p_left = pos_left / n_left
        p_right = pos_right / n_right
        cost = (
            n_left * 2.0 * p_left * (1.0 - p_left)
            + n_right * 2.0 * p_right * (1.0 - p_right)
        ) / n
        cost[sv[:, lo:hi] >= sv[:, lo + 1 : hi + 1]] = np.inf
        best = np.argmin(cost, axis=1)
        costs = cost[np.arange(best.shape[0]), best]
        rows = np.nonzero(costs < np.inf)[0]
        positions = best[rows] + lo
        thresholds = (sv[rows, positions] + sv[rows, positions + 1]) / 2.0
        found.append((costs[rows], thresholds, features[start + rows]))
    costs, thresholds, winners = (np.concatenate(part) for part in zip(*found))
    if costs.size == 0:
        return None
    j = int(np.lexsort((winners, thresholds, costs))[0])
    return float(costs[j]), float(thresholds[j]), int(winners[j])


def _grow(
    nodes: list[list],
    XT: np.ndarray,
    y: np.ndarray,
    rows: np.ndarray,
    depth: int,
    limits: tuple[int, int, int],
    rng: Optional[np.random.Generator],
) -> int:
    """Append the subtree of the samples ``rows`` (indices into ``y`` and the
    columns of the transposed features ``XT``) to ``nodes`` in preorder, one
    ``[feature, threshold, left, right, prob, depth]`` row per node, and
    return its root's index. ``limits`` is (max_depth, min_leaf, features
    drawn per split); fewer than all are drawn with ``rng``.

    Not a closure that calls itself: that is a reference cycle, which keeps
    ``XT`` alive after the fit until the garbage collector runs.
    """
    max_depth, min_leaf, n_drawn = limits
    y_node = y[rows]
    n = rows.shape[0]
    positives = float(y_node.sum())  # exact: the labels are 0 and 1
    at = len(nodes)
    nodes.append([0, 0.0, at, at, positives / n, depth])
    if depth >= max_depth or positives in (0.0, n) or n < 2 * min_leaf:
        return at
    d = XT.shape[0]
    if n_drawn < d:
        features = np.sort(rng.choice(d, size=n_drawn, replace=False))
        values = XT[features].take(rows, axis=1)
    else:
        features = np.arange(d)
        values = XT.take(rows, axis=1)
    best = _best_split(values, y_node, features, min_leaf)
    del values  # not held while the subtrees grow
    if best is None:
        return at
    _, threshold, feature = best
    mask = XT[feature, rows] < threshold
    left = _grow(nodes, XT, y, rows[mask], depth + 1, limits, rng)
    right = _grow(nodes, XT, y, rows[~mask], depth + 1, limits, rng)
    nodes[at][:4] = feature, threshold, left, right
    return at


def _fit_forest(
    features, labels, seeds: Optional[list], max_depth: int, min_leaf: int
) -> Forest:
    """One tree on every sample and feature when ``seeds`` is None; else one
    tree per seed on a bootstrap draw, with ceil(sqrt(d)) features drawn per
    split by that seed's generator."""
    if max_depth < 1 or min_leaf < 1:
        raise ConfigError("max_depth and min_leaf must be positive")
    X = as_matrix(features, "features")
    y = as_labels(labels, X.shape[0])
    _require_both_classes(y)
    n, d = X.shape
    XT = np.ascontiguousarray(X.T)
    nodes: list[list] = []
    if seeds is None:
        roots = [_grow(nodes, XT, y, np.arange(n), 0, (max_depth, min_leaf, d), None)]
    else:
        limits = (max_depth, min_leaf, int(math.ceil(math.sqrt(d))))
        roots = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            roots.append(_grow(nodes, XT, y, rng.integers(0, n, size=n), 0, limits, rng))
    *table, depths = (np.array(column) for column in zip(*nodes))
    return Forest(*table, roots=np.array(roots), depth=int(depths.max()), n_features=d)


def train_tree(features, labels, max_depth: int = 12, min_leaf: int = 1) -> Forest:
    """Greedy Gini tree, a forest of one; stops on purity, depth, or
    leaf-size limits."""
    return _fit_forest(features, labels, None, max_depth, min_leaf)


def train_forest(
    features,
    labels,
    n_trees: int = 30,
    seed: int = 0,
    max_depth: int = 12,
    min_leaf: int = 1,
) -> Forest:
    """Bootstrap forest with per-split subsampling of ceil(sqrt(d)) features.

    Per-tree generators derive from independent seed-sequence children, so
    tree training could run in any order with identical results.
    """
    if n_trees < 1:
        raise ConfigError("forest needs at least one tree")
    return _fit_forest(
        features, labels, np.random.SeedSequence(seed).spawn(n_trees), max_depth, min_leaf
    )


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


def train_svm(
    features,
    labels,
    lam: float = 1e-4,
    epochs: int = 400,
    lr: float = 0.5,
) -> LinearSVM:
    """Full-batch subgradient descent on the L2-regularized hinge loss.

    The step size decays as lr / sqrt(t + 1); the full-batch schedule is
    deterministic.
    """
    if lam < 0 or lr <= 0 or epochs < 1:
        raise ConfigError("lam must be >= 0, lr > 0, epochs >= 1")
    X = as_matrix(features, "features")
    y = as_labels(labels, X.shape[0])
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

TrainedClassifier = MLPModel | Forest | LinearSVM


def predict_proba(model: TrainedClassifier, features) -> np.ndarray:
    """Probabilities in [0, 1], one per feature row, for any trained model."""
    X = as_matrix(features, "features")
    expected = model.n_features
    if X.shape[1] != expected:
        raise DataError(
            f"features have {X.shape[1]} columns, model expects {expected}"
        )
    probs = model.predict_proba(X)
    return np.clip(probs, 0.0, 1.0)
