"""Declarative experiment runner.

Wires corpus -> embedding -> retrieval -> representation -> classifier ->
metrics into the two pipeline variants (RAG-MLP, and RAG-DimRed-MLP when a
compression stage is configured) and executes the six standard task designs:

  task1  classifier sweep (forest/tree/svm/mlp) x compression on/off
  task2  embedding-backbone sweep under a fixed pipeline
  task3  compression-strategy sweep (sequence axis, hidden axis at several
         component counts, last token, hybrid)
  task4  frozen vs. jointly-trained adapter representations
  task5  externally converted datasets, one run set per dataset
  task6  cross-trial generalization with a progressive exclusion sweep

Per-patient feature construction may run on a thread pool; results are
assembled in dataset order, so thread count never changes any output byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .classifiers import (
    DEFAULT_MLP_HIDDEN,
    TrainConfig,
    predict_proba,
    train_forest,
    train_mlp,
    train_svm,
    train_tree,
    train_with_adapter,
)
from .corpus import (
    DEFAULT_CHUNK_OVERLAP,
    DEFAULT_CHUNK_SIZE,
    MODALITIES,
    Dataset,
    SplitSpec,
    SyntheticConfig,
    build_chunks,
    generate_synthetic,
    load_dataset,
    make_split,
)
from .embedding import (
    DEFAULT_MOCK_DIM,
    HttpProvider,
    MockProvider,
    embed_texts,
    embed_tokens,
)
from .errors import ConfigError, DataError, DegenerateVarianceError, InsufficientTokensError
from .metrics import CSV_COLUMNS, MetricReport, compute_report
from .representation import (
    DimRedConfig,
    dimred as apply_dimred,
    hybrid_concat,
    mean_pool,
    pca_fit,
    pca_project,
    pool_pca_mean,
    select_last_token,
)
from .retrieval import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_K_RETRIEVE,
    assemble_prompt,
    score_chunks,
    select_top_k,
)

logger = logging.getLogger("trialmatch.harness")

TASKS = ("task1", "task2", "task3", "task4", "task5", "task6")
CLASSIFIERS = ("mlp", "tree", "forest", "svm")
POOLINGS = ("mean", "last_token", "pca_mean", "hybrid_last")
ADAPTER_MODES = ("frozen", "adapter")
MAX_SKIP_FRACTION = 0.05

RESULTS_CSV_COLUMNS = (
    "task",
    "variant",
    "dataset",
    "trial",
    "exclusion",
    "seed",
    "config_hash",
) + CSV_COLUMNS


def default_variant_b_dimred() -> DimRedConfig:
    """Compression stage used when a config asks for Variant B with no detail:
    sequence axis, one component (the robust aggregation setting)."""
    return DimRedConfig(axis="sequence", n_components=None, fit_scope="per_chunk")


# ---------------------------------------------------------------------------
# Configuration model
# ---------------------------------------------------------------------------

def _load(cls, obj, where: str):
    """A ``cls`` built from the JSON value ``obj`` by the rules of
    ``ExperimentConfig.from_dict``; ``where`` names ``obj`` in errors."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object, got {type(obj).__name__}")
    known = [f.name for f in fields(cls)]
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(
            f"unknown key {unknown[0]!r} in {where}; expected one of {', '.join(known)}"
        )
    for f in fields(cls):
        if f.default is MISSING and f.default_factory is MISSING and f.name not in obj:
            raise ConfigError(f"missing required key {f.name!r} in {where}")
    hints = get_type_hints(cls)
    return cls(**{key: _load_value(hints[key], value, key, where) for key, value in obj.items()})


def _load_value(tp, value, key: str, where: str):
    if get_origin(tp) is Union:  # Optional[X]
        if value is None:
            return None
        (tp,) = [arg for arg in get_args(tp) if arg is not type(None)]
    if is_dataclass(tp):
        return _load(tp, value, key)
    if get_origin(tp) is tuple:
        if not isinstance(value, list):
            raise ConfigError(
                f"key {key!r} in {where} must be a JSON array, got {type(value).__name__}"
            )
        item = get_args(tp)[0]
        return tuple(_load_value(item, v, f"{key}[{i}]", where) for i, v in enumerate(value))
    if tp is float and type(value) is int:
        return float(value)
    if type(value) is not tp:
        raise ConfigError(
            f"key {key!r} in {where} must be {tp.__name__}, got {type(value).__name__}"
        )
    return value


@dataclass(frozen=True)
class ProviderSpec:
    """Declarative reference to an embedding backend."""

    kind: str = "mock"  # "mock" | "http"
    name: Optional[str] = None
    dim: int = DEFAULT_MOCK_DIM
    seed: int = 0
    endpoint: Optional[str] = None
    model: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("mock", "http"):
            raise ConfigError(f"unknown provider kind {self.kind!r}")
        if self.kind == "http" and not self.model:
            raise ConfigError("http provider requires a model name")

    @property
    def resolved_name(self) -> str:
        return self.name or (self.model if self.kind == "http" else "mock")

    def build(self):
        if self.kind == "mock":
            return MockProvider(dim=self.dim, seed=self.seed, name=self.resolved_name)
        return HttpProvider(
            endpoint=self.endpoint,
            model=self.model or "",
            dim=self.dim,
            name=self.resolved_name,
        )


@dataclass(frozen=True)
class PipelineSpec:
    """One fully resolved pipeline variant.

    ``dimred`` present selects Variant B (RAG-DimRed-MLP); absent it is
    Variant A (RAG-MLP). ``pooling`` collapses the prompt token matrix when no
    compression stage runs, and provides the base vectors for dataset-scope
    compression.
    """

    provider: ProviderSpec = ProviderSpec()
    k_retrieve: int = DEFAULT_K_RETRIEVE
    pooling: str = "mean"
    pooling_components: Optional[int] = None
    dimred: Optional[DimRedConfig] = None
    classifier: str = "mlp"
    adapter_mode: str = "frozen"
    adapter_dim: Optional[int] = None
    train: TrainConfig = TrainConfig()
    seed: int = 0
    chunk_size: int = DEFAULT_CHUNK_SIZE
    chunk_overlap: int = DEFAULT_CHUNK_OVERLAP
    mlp_hidden: tuple[int, ...] = DEFAULT_MLP_HIDDEN
    forest_trees: int = 30
    tree_max_depth: int = 12
    tree_min_leaf: int = 1
    svm_lambda: float = 1e-4
    svm_epochs: int = 400
    svm_lr: float = 0.5
    instructions: str = DEFAULT_INSTRUCTIONS
    validation_fraction: float = 0.2
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.classifier not in CLASSIFIERS:
            raise ConfigError(f"unknown classifier {self.classifier!r}")
        if self.pooling not in POOLINGS:
            raise ConfigError(f"unknown pooling {self.pooling!r}")
        if self.adapter_mode not in ADAPTER_MODES:
            raise ConfigError(f"unknown adapter mode {self.adapter_mode!r}")
        if self.k_retrieve < 1:
            raise ConfigError("k_retrieve must be at least 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must lie in [0, 1)")

    @property
    def variant_name(self) -> str:
        if self.name:
            return self.name
        suffix = "+dimred" if self.dimred is not None else ""
        return f"{self.classifier}{suffix}"

    def stages(self) -> tuple[str, ...]:
        base = ("chunk", "embed", "retrieve", "prompt", "encode")
        if self.dimred is not None:
            return base + ("dimred", "pool", "classify")
        return base + ("pool", "classify")


@dataclass(frozen=True)
class DatasetSource:
    """Either a pair of JSONL paths or a synthetic generator config."""

    name: str = "dataset"
    patients_path: Optional[str] = None
    trials_path: Optional[str] = None
    synthetic: Optional[SyntheticConfig] = None
    seed: int = 0

    def __post_init__(self) -> None:
        has_paths = self.patients_path is not None and self.trials_path is not None
        if has_paths == (self.synthetic is not None):
            raise ConfigError(
                "dataset source needs either patients/trials paths or a synthetic config"
            )

    def load(self) -> Dataset:
        if self.synthetic is not None:
            return generate_synthetic(self.synthetic, self.seed)
        return load_dataset(self.patients_path, self.trials_path)


@dataclass(frozen=True)
class ExperimentConfig:
    task: str
    dataset: Optional[DatasetSource] = None
    modality: str = "mixed"
    variants: tuple[PipelineSpec, ...] = (PipelineSpec(),)
    split: SplitSpec = SplitSpec()
    output_dir: str = "out"
    exclusions: tuple[float, ...] = (1.0, 0.8, 0.6, 0.4, 0.2)
    datasets: tuple[DatasetSource, ...] = ()
    providers: tuple[ProviderSpec, ...] = ()
    threads: int = 1

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.modality not in MODALITIES:
            raise ConfigError(f"unknown modality {self.modality!r}")
        if not self.variants:
            raise ConfigError("at least one pipeline variant is required")
        if self.task == "task6" and not self.exclusions:
            raise ConfigError("task6 requires a non-empty exclusion sweep")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")

    @classmethod
    def from_dict(cls, obj: dict) -> "ExperimentConfig":
        """Strict loader for a parsed JSON config.

        Only known keys are accepted, and a key without a default must be
        present. Each field takes one JSON type: an object for a nested
        config, an array for a tuple, a number, string or null as declared;
        an int is accepted for a float and read as one. Any breach raises
        ConfigError naming the key.
        """
        return _load(cls, obj, "config")

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ExperimentConfig":
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc.msg}") from exc
        return cls.from_dict(obj)


def config_hash(payload: dict) -> str:
    """Content hash of a resolved config; stable across machines."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


@dataclass
class RunResult:
    """One train/evaluate cell.

    ``feature_seconds`` is the duration of the feature pass the run used and
    ``wall_seconds`` includes it. Runs that share one pass (the variants of
    tasks 1, 3 and 4, the cells of task 6) each repeat that pass's time, so
    summing ``wall_seconds`` over them counts the pass once per run.
    """

    task: str
    variant: str
    dataset_name: str
    trial: Optional[str]
    exclusion: Optional[float]
    seed: int
    config_hash: str
    report: MetricReport
    wall_seconds: float
    feature_seconds: float
    stages: tuple[str, ...]
    skipped: int
    fallbacks: int
    log_path: Optional[str] = None


# ---------------------------------------------------------------------------
# Feature construction
# ---------------------------------------------------------------------------

@dataclass
class FeatureSet:
    ids: list[str]
    X: np.ndarray
    y: np.ndarray
    skipped: list[tuple[str, str]]
    fallbacks: int
    seconds: float  # duration of the feature pass that built this set


def _expected_feature_length(spec: PipelineSpec, d_hidden: int) -> int:
    if spec.dimred is not None:
        cfg = spec.dimred
        if cfg.fit_scope == "dataset":
            return d_hidden  # base vectors; projection happens per split
        n = cfg.resolved_components
        if cfg.axis == "sequence":
            core = d_hidden if n == 1 else n
        else:
            core = n
        if spec.pooling == "hybrid_last":
            return core + d_hidden
        return core
    if spec.pooling == "hybrid_last":
        return 2 * d_hidden
    if spec.pooling == "pca_mean":
        if spec.pooling_components is None:
            raise ConfigError("pooling 'pca_mean' requires pooling_components")
        return spec.pooling_components
    return d_hidden  # "mean" and "last_token"


def _pool_matrix(spec: PipelineSpec, matrix: np.ndarray) -> np.ndarray:
    if spec.pooling == "mean":
        return mean_pool(matrix).values
    if spec.pooling == "last_token":
        return select_last_token(matrix).values
    if spec.pooling == "hybrid_last":
        return hybrid_concat(mean_pool(matrix), select_last_token(matrix)).values
    if spec.pooling == "pca_mean":
        if spec.pooling_components is None:
            raise ConfigError("pooling 'pca_mean' requires pooling_components")
        return pool_pca_mean(matrix, spec.pooling_components).values
    raise ConfigError(f"unknown pooling {spec.pooling!r}")


def _reduce_matrix(
    spec: PipelineSpec, matrix: np.ndarray
) -> tuple[np.ndarray, Optional[Exception]]:
    """Token matrix -> feature vector; returns (values, the error that made
    compression fall back to mean pooling, or None)."""
    cfg = spec.dimred
    if cfg is None or cfg.fit_scope == "dataset":
        return _pool_matrix(spec, matrix), None
    try:
        pooled = apply_dimred(matrix, cfg)
        if spec.pooling == "hybrid_last":
            pooled = hybrid_concat(pooled, select_last_token(matrix))
        return pooled.values, None
    except (InsufficientTokensError, DegenerateVarianceError, ConfigError) as exc:
        fallback = mean_pool(matrix).values
        if spec.pooling == "hybrid_last":
            fallback = np.concatenate([fallback, matrix[-1]])
        # Without its traceback the error no longer holds the token matrix.
        return fallback, exc.with_traceback(None)


@dataclass
class Retrieval:
    """One patient's retrieval: its chunks and their vectors, the trial's
    criteria, every chunk scored against them, and the top k of those."""

    chunks: list
    chunk_vectors: list[np.ndarray]
    criteria: list
    scored: list
    selected: list


class PatientEncoder:
    """Shared retrieval + encode stage; per-variant reduction happens on top."""

    def __init__(self, spec: PipelineSpec, dataset: Dataset, modality: str, provider=None):
        self.spec = spec
        self.dataset = dataset
        self.modality = modality
        self.provider = provider if provider is not None else spec.provider.build()
        self._criteria_cache: dict[str, tuple[list, list[np.ndarray]]] = {}

    def _criteria_for(self, trial_id: str):
        cached = self._criteria_cache.get(trial_id)
        if cached is None:
            criteria = list(self.dataset.trial(trial_id).criteria)
            vectors = embed_texts(self.provider, [c.text for c in criteria])
            cached = (criteria, vectors)
            self._criteria_cache[trial_id] = cached
        return cached

    def retrieve(self, patient) -> Optional[Retrieval]:
        """Chunk, embed, score and select for one patient; None when
        unchunkable."""
        chunks = build_chunks(
            patient, self.spec.chunk_size, self.spec.chunk_overlap, self.modality
        )
        if not chunks:
            return None
        criteria, criteria_vectors = self._criteria_for(patient.trial_id)
        chunk_vectors = embed_texts(self.provider, [c.text for c in chunks])
        scored = score_chunks(chunks, chunk_vectors, criteria, criteria_vectors)
        selected = select_top_k(scored, self.spec.k_retrieve)
        return Retrieval(chunks, chunk_vectors, criteria, scored, selected)

    def token_matrix(self, patient) -> Optional[np.ndarray]:
        """Retrieval + prompt + encode for one patient; None when unchunkable."""
        found = self.retrieve(patient)
        if found is None:
            return None
        text_by_id = {c.chunk_id: c.text for c in found.chunks}
        prompt = assemble_prompt(
            self.spec.instructions,
            found.criteria,
            [(s, text_by_id[s.chunk_id]) for s in found.selected],
        )
        if self.provider.descriptor.supports_token_matrix:
            return embed_tokens(self.provider, prompt.full_text)
        vec_by_id = {c.chunk_id: v for c, v in zip(found.chunks, found.chunk_vectors)}
        return np.stack([vec_by_id[s.chunk_id] for s in found.selected])


def _compute_features_multi(
    specs: Sequence[PipelineSpec],
    dataset: Dataset,
    modality: str,
    threads: int = 1,
    provider=None,
) -> list[FeatureSet]:
    """One retrieval/encode pass over the dataset, reduced per variant.

    All specs must share the retrieval-relevant fields (provider, k, chunking,
    instructions); only the representation stage may differ. Each variant
    gets one float64 matrix with a row per patient, allocated before the
    pass; a patient's reduced row is written into it as soon as the patient
    is encoded, and the variant's ``X`` is the filled prefix. The pass's
    peak is one matrix per variant plus the token matrices being reduced;
    there is no list of rows and no stacking copy.
    """
    started = time.perf_counter()
    base = specs[0]
    for other in specs[1:]:
        same = (
            other.provider == base.provider
            and other.k_retrieve == base.k_retrieve
            and other.chunk_size == base.chunk_size
            and other.chunk_overlap == base.chunk_overlap
            and other.instructions == base.instructions
        )
        if not same:
            raise ConfigError("variants in one feature pass must share retrieval settings")

    encoder = PatientEncoder(base, dataset, modality, provider)
    d_hidden = encoder.provider.descriptor.dim
    patients = dataset.patients
    widths = [_expected_feature_length(spec, d_hidden) for spec in specs]
    matrices = [np.empty((len(patients), width)) for width in widths]
    ids: list[list[str]] = [[] for _ in specs]
    labels: list[list[float]] = [[] for _ in specs]
    skipped: list[list[tuple[str, str]]] = [[] for _ in specs]
    fallbacks: list[list[Exception]] = [[] for _ in specs]

    def work(patient):
        matrix = encoder.token_matrix(patient)
        if matrix is None:
            return None
        return [_reduce_matrix(spec, matrix) for spec in specs]

    def fill(patient, reduced) -> None:
        for v, width in enumerate(widths):
            if reduced is None:
                skipped[v].append((patient.patient_id, "no_chunks"))
                continue
            values, fallback_error = reduced[v]
            if values.shape[0] != width:
                skipped[v].append((patient.patient_id, "feature_dim_mismatch"))
                continue
            if fallback_error is not None:
                fallbacks[v].append(fallback_error)
            matrices[v][len(ids[v])] = values
            ids[v].append(patient.patient_id)
            labels[v].append(float(patient.label.value))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for patient, reduced in zip(patients, pool.map(work, patients)):
                fill(patient, reduced)
    else:
        for patient in patients:
            fill(patient, work(patient))
    seconds = time.perf_counter() - started

    out: list[FeatureSet] = []
    for v, spec in enumerate(specs):
        if not ids[v]:
            raise DataError(
                f"variant {spec.variant_name!r}: every patient was skipped"
            )
        skip_fraction = len(skipped[v]) / len(patients)
        if skip_fraction > MAX_SKIP_FRACTION:
            raise DataError(
                f"variant {spec.variant_name!r}: {len(skipped[v])} of {len(patients)} "
                f"patients skipped ({skip_fraction:.1%} > {MAX_SKIP_FRACTION:.0%})"
            )
        if fallbacks[v]:
            reasons = Counter(type(exc).__name__ for exc in fallbacks[v])
            logger.warning(
                "variant %s: compression fell back to mean pooling for %d patients "
                "(%s); first: %s",
                spec.variant_name,
                len(fallbacks[v]),
                ", ".join(f"{name}: {count}" for name, count in sorted(reasons.items())),
                fallbacks[v][0],
            )
        if skipped[v]:
            logger.warning(
                "variant %s skipped %d patients: %s",
                spec.variant_name,
                len(skipped[v]),
                skipped[v][:5],
            )
        out.append(
            FeatureSet(
                ids=ids[v],
                X=matrices[v][: len(ids[v])],
                y=np.asarray(labels[v]),
                skipped=skipped[v],
                fallbacks=len(fallbacks[v]),
                seconds=seconds,
            )
        )
    return out


def compute_features(
    spec: PipelineSpec,
    dataset: Dataset,
    modality: str = "mixed",
    threads: int = 1,
    provider=None,
) -> FeatureSet:
    return _compute_features_multi([spec], dataset, modality, threads, provider)[0]


# ---------------------------------------------------------------------------
# Training and evaluation on a split
# ---------------------------------------------------------------------------

def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _carve_validation(
    X: np.ndarray, y: np.ndarray, fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray, Optional[tuple[np.ndarray, np.ndarray]]]:
    """Stratified validation carve-out for early stopping; may return None."""
    n = X.shape[0]
    if fraction <= 0.0 or n < 10:
        return X, y, None
    rng = np.random.default_rng(seed)
    val_idx: list[int] = []
    for label in (0.0, 1.0):
        idx = np.nonzero(y == label)[0]
        take = int(np.floor(fraction * idx.shape[0]))
        if take == 0 or take >= idx.shape[0]:
            continue
        perm = rng.permutation(idx.shape[0])
        val_idx.extend(idx[perm[:take]].tolist())
    if not val_idx:
        return X, y, None
    val_mask = np.zeros(n, dtype=bool)
    val_mask[val_idx] = True
    train_y = y[~val_mask]
    if train_y.min() == train_y.max():
        return X, y, None
    return X[~val_mask], y[~val_mask], (X[val_mask], y[val_mask])


def _train_eval(
    spec: PipelineSpec,
    features: FeatureSet,
    train_ids: set[str],
    test_ids: set[str],
) -> MetricReport:
    index = {pid: i for i, pid in enumerate(features.ids)}
    train_idx = [index[pid] for pid in features.ids if pid in train_ids]
    test_idx = [index[pid] for pid in features.ids if pid in test_ids]
    if not train_idx or not test_idx:
        raise DataError("split leaves an empty train or test side after skips")

    Xtr, ytr = features.X[train_idx], features.y[train_idx]
    Xte, yte = features.X[test_idx], features.y[test_idx]

    if spec.dimred is not None and spec.dimred.fit_scope == "dataset":
        n = spec.dimred.resolved_components
        bound = min(Xtr.shape[0] - 1, Xtr.shape[1])
        if n > bound:
            raise ConfigError(
                f"dataset-scope compression to {n} components needs more data "
                f"(max {bound} for {Xtr.shape[0]} train rows x {Xtr.shape[1]} dims)"
            )
        pca = pca_fit(Xtr, n)
        Xtr = pca_project(pca, Xtr)
        Xte = pca_project(pca, Xte)

    train_seed = _derive_seed(spec.seed, spec.train.seed, 1)
    config = replace(spec.train, seed=train_seed)

    if spec.classifier == "mlp":
        # The MLP trains in float32, the dtype of the features it is given;
        # the other classifiers and every prediction see float64.
        carve_seed = _derive_seed(spec.seed, spec.train.seed, 2)
        core_x, core_y, validation = _carve_validation(
            Xtr.astype(np.float32), ytr, spec.validation_fraction, carve_seed
        )
        if spec.adapter_mode == "adapter":
            d_in = core_x.shape[1]
            d_out = spec.adapter_dim or d_in
            model, _ = train_with_adapter(
                core_x,
                core_y,
                (d_in, d_out),
                config,
                validation=validation,
                hidden_sizes=spec.mlp_hidden,
            )
        else:
            model, _ = train_mlp(
                core_x, core_y, config, validation=validation, hidden_sizes=spec.mlp_hidden
            )
    elif spec.classifier == "tree":
        model = train_tree(Xtr, ytr, spec.tree_max_depth, spec.tree_min_leaf)
    elif spec.classifier == "forest":
        model = train_forest(
            Xtr,
            ytr,
            n_trees=spec.forest_trees,
            seed=train_seed,
            max_depth=spec.tree_max_depth,
            min_leaf=spec.tree_min_leaf,
        )
    else:
        model = train_svm(
            Xtr,
            ytr,
            lam=spec.svm_lambda,
            epochs=spec.svm_epochs,
            lr=spec.svm_lr,
            seed=train_seed,
        )

    probs = predict_proba(model, Xte)
    return compute_report(yte, probs, threshold=0.5)


def _spec_hash(spec: PipelineSpec, dataset_name: str, modality: str, split: SplitSpec) -> str:
    return config_hash(
        {
            "spec": asdict(spec),
            "dataset": dataset_name,
            "modality": modality,
            "split": asdict(split),
        }
    )


def run_pipeline(
    spec: PipelineSpec,
    dataset: Dataset,
    split: SplitSpec,
    modality: str = "mixed",
    task: str = "adhoc",
    dataset_name: str = "dataset",
    trial: Optional[str] = None,
    exclusion: Optional[float] = None,
    threads: int = 1,
    features: Optional[FeatureSet] = None,
) -> RunResult:
    """Execute one pipeline variant end to end on one split.

    ``features`` is a feature pass already made for ``spec`` (shared by
    several runs); without it the pass runs here.
    """
    if features is None:
        features = compute_features(spec, dataset, modality, threads)
    started = time.perf_counter()
    train_ids, test_ids = make_split(dataset, split)
    report = _train_eval(spec, features, train_ids, test_ids)
    train_seconds = time.perf_counter() - started
    return RunResult(
        task=task,
        variant=spec.variant_name,
        dataset_name=dataset_name,
        trial=trial,
        exclusion=exclusion,
        seed=spec.seed,
        config_hash=_spec_hash(spec, dataset_name, modality, split),
        report=report,
        wall_seconds=features.seconds + train_seconds,
        feature_seconds=features.seconds,
        stages=spec.stages(),
        skipped=len(features.skipped),
        fallbacks=features.fallbacks,
    )


# ---------------------------------------------------------------------------
# Task sweeps
# ---------------------------------------------------------------------------

def _task1_variants(base: PipelineSpec) -> list[PipelineSpec]:
    variants = []
    for clf in ("forest", "tree", "svm", "mlp"):
        for cfg in (None, default_variant_b_dimred()):
            suffix = "+dimred" if cfg is not None else ""
            variants.append(
                replace(base, classifier=clf, dimred=cfg, name=f"{clf}{suffix}")
            )
    return variants


def _task3_variants(base: PipelineSpec) -> list[PipelineSpec]:
    variants = [
        replace(
            base,
            dimred=DimRedConfig(axis="sequence", n_components=1),
            pooling="mean",
            name="sequence-1",
        )
    ]
    for n in (16, 32, 64, 128):
        variants.append(
            replace(
                base,
                dimred=DimRedConfig(axis="hidden", n_components=n),
                pooling="mean",
                name=f"hidden-{n}",
            )
        )
    variants.append(replace(base, dimred=None, pooling="last_token", name="last_token"))
    variants.append(
        replace(
            base,
            dimred=DimRedConfig(axis="sequence", n_components=1),
            pooling="hybrid_last",
            name="hybrid",
        )
    )
    return variants


def _task4_variants(base: PipelineSpec) -> list[PipelineSpec]:
    variants = []
    for cfg, kind in ((None, "RAG-MLP"), (default_variant_b_dimred(), "RAG-DimRed-MLP")):
        for mode in ("frozen", "adapter"):
            variants.append(
                replace(
                    base,
                    classifier="mlp",
                    dimred=cfg,
                    adapter_mode=mode,
                    name=f"{kind}:{mode}",
                )
            )
    return variants


def run_task(config: ExperimentConfig) -> tuple[list[RunResult], list[dict]]:
    """Execute one task's sweep; returns (results, comparison table rows)."""
    results: list[RunResult] = []
    base = config.variants[0]
    log_path = str(Path(config.output_dir) / "run.log") if config.output_dir else None

    def record(run: RunResult) -> None:
        run.log_path = log_path
        results.append(run)
        logger.info(
            "run %s/%s dataset=%s trial=%s exclusion=%s macro_f1=%s auroc=%s",
            run.task,
            run.variant,
            run.dataset_name,
            run.trial,
            run.exclusion,
            f"{run.report.macro_f1:.4f}",
            "absent" if run.report.auroc is None else f"{run.report.auroc:.4f}",
        )

    if config.task in ("task1", "task3", "task4"):
        if config.dataset is None:
            raise ConfigError(f"{config.task} requires a dataset")
        dataset = config.dataset.load()
        if config.task == "task1":
            variants = _task1_variants(base)
        elif config.task == "task3":
            variants = _task3_variants(base)
        else:
            variants = _task4_variants(base)
        feature_sets = _compute_features_multi(
            variants, dataset, config.modality, config.threads
        )
        for spec, features in zip(variants, feature_sets):
            record(
                run_pipeline(
                    spec,
                    dataset,
                    config.split,
                    modality=config.modality,
                    task=config.task,
                    dataset_name=config.dataset.name,
                    features=features,
                )
            )

    elif config.task == "task2":
        if config.dataset is None:
            raise ConfigError("task2 requires a dataset")
        dataset = config.dataset.load()
        providers = config.providers or (
            ProviderSpec(kind="mock", name="mock-a", dim=base.provider.dim, seed=101),
            ProviderSpec(kind="mock", name="mock-b", dim=max(32, base.provider.dim // 2), seed=202),
            ProviderSpec(kind="mock", name="mock-c", dim=base.provider.dim + 32, seed=303),
        )
        for pspec in providers:
            spec = replace(
                base,
                provider=pspec,
                dimred=base.dimred or default_variant_b_dimred(),
                classifier="mlp",
                name=f"backbone-{pspec.resolved_name}",
            )
            record(
                run_pipeline(
                    spec,
                    dataset,
                    config.split,
                    modality=config.modality,
                    task="task2",
                    dataset_name=config.dataset.name,
                    threads=config.threads,
                )
            )

    elif config.task == "task5":
        if not config.datasets:
            raise ConfigError("task5 requires dataset paths in 'datasets'")
        for source in config.datasets:
            dataset = source.load()
            for spec in config.variants:
                record(
                    run_pipeline(
                        spec,
                        dataset,
                        config.split,
                        modality=config.modality,
                        task="task5",
                        dataset_name=source.name,
                        threads=config.threads,
                    )
                )

    else:  # task6
        if config.dataset is None:
            raise ConfigError("task6 requires a dataset")
        dataset = config.dataset.load()
        trial_ids = dataset.trial_ids()
        if len(trial_ids) < 2:
            raise DataError("task6 needs at least 2 trials for cross-trial evaluation")
        # The mixed-data setting is part of the task design.
        modality = "mixed"
        features = compute_features(base, dataset, modality, config.threads)
        for trial_id in trial_ids:
            for exclusion in config.exclusions:
                split = SplitSpec(
                    mode="cross_trial",
                    test_fraction=config.split.test_fraction,
                    target_trial=trial_id,
                    exclusion_fraction=exclusion,
                    seed=config.split.seed,
                )
                record(
                    run_pipeline(
                        base,
                        dataset,
                        split,
                        modality=modality,
                        task="task6",
                        dataset_name=config.dataset.name,
                        trial=trial_id,
                        exclusion=exclusion,
                        features=features,
                    )
                )

    table = [
        {
            "task": r.task,
            "variant": r.variant,
            "dataset": r.dataset_name,
            "trial": r.trial,
            "exclusion": r.exclusion,
            "macro_f1": r.report.macro_f1,
            "auroc": r.report.auroc,
            "auprc": r.report.auprc,
            "n": r.report.n,
        }
        for r in results
    ]
    return results, table


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------

def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_outputs(
    results: Sequence[RunResult],
    output_dir: str | Path,
    config: Optional[ExperimentConfig] = None,
) -> dict:
    """Write results.csv and manifest.json to ``output_dir``; return the manifest.

    results.csv holds one metrics row per run and no timing data, so reruns
    stay byte-identical regardless of thread count or machine load.
    manifest.json adds the resolved config, its hash, and each run's stages,
    skips, fallbacks and timings.
    """
    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out}: {exc}") from exc

    csv_path = out / "results.csv"
    with csv_path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(RESULTS_CSV_COLUMNS)
        for r in results:
            row = [
                r.task,
                r.variant,
                r.dataset_name,
                r.trial or "",
                _format_cell(r.exclusion),
                str(r.seed),
                r.config_hash,
            ]
            row.extend(r.report.to_csv_row())
            writer.writerow(row)

    resolved = None if config is None else asdict(config)
    manifest = {
        "generator": f"trialmatch {__version__}",
        "config": resolved,
        "config_hash": None if resolved is None else config_hash(resolved),
        "files": ["results.csv", "manifest.json"],
        "runs": [
            {
                "task": r.task,
                "variant": r.variant,
                "dataset": r.dataset_name,
                "trial": r.trial,
                "exclusion": r.exclusion,
                "seed": r.seed,
                "config_hash": r.config_hash,
                "stages": list(r.stages),
                "skipped": r.skipped,
                "fallbacks": r.fallbacks,
                "wall_seconds": r.wall_seconds,
                "feature_seconds": r.feature_seconds,
                "report": r.report.to_dict(),
                "log_path": r.log_path,
            }
            for r in results
        ],
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    return manifest
