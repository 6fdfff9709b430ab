"""Declarative experiment runner.

Wires corpus -> embedding -> retrieval -> representation -> classifier ->
metrics into the two pipeline variants (RAG-MLP, and RAG-DimRed-MLP when a
compression stage is configured) and executes the six standard task designs:

  task1  classifier sweep (forest/tree/svm/mlp) x compression on/off
  task2  embedding-backbone sweep under a fixed pipeline
  task3  compression-strategy sweep (sequence axis; train-split PCA of
         pooled vectors at several component counts; last token; hybrid)
  task4  frozen vs. jointly-trained square-adapter representations
  task5  externally converted datasets, one run set per dataset
  task6  cross-trial generalization with a progressive exclusion sweep

Every task runs one plan: dataset x cell x variant. A task names its
datasets (``datasets`` for task5, ``dataset`` otherwise), its variants, and
its cells (the configured split, or task6's trial x exclusion grid). A
task's variants are its arms, the rows of ``_ARMS``: each row overrides
fields of a configured variant (task2 makes one row per provider), and a
config key that no arm of the task reads is a ``ConfigError``. Per
dataset, retrieval and encoding run once for each distinct retrieval setting
(provider, k, chunking) and each variant reduces that pass's token matrices;
every variant is then trained and evaluated on every cell.

A config is checked once, when it is built: ``ExperimentConfig`` (with the
arms of each configured variant), ``PipelineSpec`` and ``ProviderSpec``
raise every ``ConfigError`` that the config alone decides. ``run_task`` then
raises data errors, plus one ``ConfigError`` that needs the split: more
hidden-axis components than a cell's train rows allow. Two checks wait for
the pass: an http provider's endpoint, a deployment setting looked up when
the provider is built, and ``pca_mean``'s component range, which
``pool_pca_mean`` checks against each prompt.

Features are built on one thread, one patient at a time in dataset order.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import time
from collections import Counter
from dataclasses import MISSING, asdict, astuple, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .classifiers import (
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
    check_chunking,
    generate_synthetic,
    load_dataset,
    make_split,
    write_file,
)
from .embedding import (
    DEFAULT_MOCK_DIM,
    HttpProvider,
    MockProvider,
    check_dim,
    check_mock_dim,
    embed_texts,
    embed_tokens,
)
from .errors import ConfigError, DataError, DegenerateVarianceError
from .metrics import CSV_COLUMNS, MetricReport, compute_report, csv_cell
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
# Share of each class the MLP holds out of its train rows for early stopping.
VALIDATION_FRACTION = 0.2


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
    """The one description of an embedding backend: its name, kind and
    output dim. ``kind`` decides whether a run encodes a prompt (mock) or
    takes its selected chunk vectors as the rows (http); the provider that
    ``build`` makes carries its dim but no name. A key that its kind does
    not read (a mock's ``endpoint`` or ``model``, an http provider's
    ``seed``) is a ``ConfigError``, so equal backends share one feature
    pass."""

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
        for key in ("endpoint", "model") if self.kind == "mock" else ("seed",):
            if getattr(self, key) != getattr(ProviderSpec, key):
                raise ConfigError(f"{key!r} is read by no {self.kind} provider")
        if self.kind == "mock":
            check_mock_dim(self.dim)
        else:
            check_dim(self.dim)

    @property
    def resolved_name(self) -> str:
        return self.name or (self.model if self.kind == "http" else "mock")

    def build(self):
        if self.kind == "mock":
            return MockProvider(dim=self.dim, seed=self.seed)
        return HttpProvider(endpoint=self.endpoint, model=self.model, dim=self.dim)


@dataclass(frozen=True)
class PipelineSpec:
    """One fully resolved pipeline variant: what a task's arms vary or a
    config sets. Each predictor's hyperparameters are the defaults of its
    ``classifiers`` function (``train_forest``, ``train_tree``, ``train_svm``,
    ``train_mlp``, ``train_with_adapter``) except the MLP's epoch schedule,
    ``train``; ``adapter_mode: "adapter"`` puts a square adapter, starting
    at the identity, in front of the MLP. Prompts open with
    ``retrieval.DEFAULT_INSTRUCTIONS``.

    ``dimred`` present selects Variant B (RAG-DimRed-MLP); absent it is
    Variant A (RAG-MLP). ``pooling`` collapses the prompt token matrix when no
    sequence-axis compression runs, and provides the vectors that hidden-axis
    compression projects.
    """

    provider: ProviderSpec = ProviderSpec()
    k_retrieve: int = DEFAULT_K_RETRIEVE
    pooling: str = "mean"
    pooling_components: Optional[int] = None
    dimred: Optional[DimRedConfig] = None
    classifier: str = "mlp"
    adapter_mode: str = "frozen"
    train: TrainConfig = TrainConfig()
    seed: int = 0
    chunk_size: int = DEFAULT_CHUNK_SIZE
    chunk_overlap: int = DEFAULT_CHUNK_OVERLAP
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
        check_chunking(self.chunk_size, self.chunk_overlap)

    @property
    def variant_name(self) -> str:
        if self.name:
            return self.name
        suffix = "+dimred" if self.dimred is not None else ""
        return f"{self.classifier}{suffix}"

    def stages(self) -> tuple[str, ...]:
        """The stages a run of this variant goes through, in order. An http
        provider's rows are its selected chunk vectors, so no prompt is built
        or encoded; hidden-axis compression projects the pooled vectors."""
        encode = ("prompt", "encode") if self.provider.kind == "mock" else ()
        if self.dimred is None:
            reduce = ("pool",)
        elif self.dimred.axis == "sequence":
            reduce = ("dimred", "pool")
        else:
            reduce = ("pool", "dimred")
        return ("chunk", "embed", "retrieve", *encode, *reduce, "classify")


@dataclass(frozen=True)
class DatasetSource:
    """Either a pair of JSONL paths or a synthetic generator config and its
    seed; a key that the other kind reads is a ``ConfigError``."""

    name: str = "dataset"
    patients_path: Optional[str] = None
    trials_path: Optional[str] = None
    synthetic: Optional[SyntheticConfig] = None
    seed: int = 0

    def __post_init__(self) -> None:
        synthetic = self.synthetic is not None
        if not synthetic and (self.patients_path is None or self.trials_path is None):
            raise ConfigError(
                "dataset source needs either patients/trials paths or a synthetic config"
            )
        for key in ("patients_path", "trials_path") if synthetic else ("seed",):
            if getattr(self, key) != getattr(DatasetSource, key):
                kind = "synthetic" if synthetic else "file"
                raise ConfigError(f"{key!r} is read by no {kind} dataset source")

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
    threads: int = 1  # only 1 is accepted: features are built on one thread

    def __post_init__(self) -> None:
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}; expected one of {TASKS}")
        if self.modality not in MODALITIES:
            raise ConfigError(f"unknown modality {self.modality!r}")
        if not self.variants:
            raise ConfigError("at least one pipeline variant is required")
        if self.task != "task5" and len(self.variants) > 1:
            raise ConfigError(
                f"{self.task} takes one variant, got {len(self.variants)}; "
                "only task5 runs a list of variants"
            )
        if self.task == "task6":
            if not self.exclusions:
                raise ConfigError("task6 requires a non-empty exclusion sweep")
            for e in self.exclusions:
                if not 0.0 < e <= 1.0:
                    # At 0 every target patient stays in train: no test side.
                    raise ConfigError(f"exclusion {e!r} must lie in (0, 1]")
                if self.exclusions.count(e) > 1:
                    raise ConfigError(f"exclusion {e!r} is repeated; its rows would share keys")
        if self.threads != 1:
            raise ConfigError("threads must be 1: feature construction runs on one thread")
        if self.task == "task5":
            if not self.datasets:
                raise ConfigError("task5 requires dataset paths in 'datasets'")
            names = [source.name for source in self.datasets]
            for name in names:
                if names.count(name) > 1:
                    raise ConfigError(
                        f"dataset name {name!r} is repeated in 'datasets'; "
                        "each task5 dataset needs its own name"
                    )
        if self.task != "task5" and self.dataset is None:
            raise ConfigError(f"{self.task} requires a dataset")
        _check_unread_keys(self)
        _check_arms(self)

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
    """One train/evaluate cell, and its ``manifest.json`` entry.

    The field order is the manifest entry's key order, and the first seven
    fields are the results.csv key columns (``KEY_COLUMNS``), ahead of the
    metric columns of ``report``. A new field is one line here.

    ``feature_seconds`` is the duration of the feature pass the run used and
    ``wall_seconds`` adds the run's split, training and evaluation to it.
    All runs on one dataset whose variants share a retrieval setting share
    one pass (every variant of tasks 1, 3 and 4, task5's variants with equal
    retrieval settings, all cells of task6); each repeats that pass's time,
    so summing ``wall_seconds`` over them counts the pass once per run.
    """

    task: str
    variant: str
    dataset: str
    trial: Optional[str]
    exclusion: Optional[float]
    seed: int
    config_hash: str
    stages: list[str]
    skipped: int
    fallbacks: int
    wall_seconds: float
    feature_seconds: float
    report: MetricReport
    log_path: Optional[str] = None


KEY_COLUMNS = tuple(f.name for f in fields(RunResult)[:7])


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


def _compresses_sequence(spec: PipelineSpec) -> bool:
    return spec.dimred is not None and spec.dimred.axis == "sequence"


def _feature_width(spec: PipelineSpec, d_hidden: int) -> Optional[int]:
    """Width of a variant's feature rows: the pooled width, or d_hidden
    (plus d_hidden for ``hybrid_last``) under sequence-axis compression.
    None for ``pca_mean`` pooling without ``pooling_components``, which
    config loading rejects."""
    if spec.pooling == "hybrid_last":
        return 2 * d_hidden
    if spec.pooling == "pca_mean" and not _compresses_sequence(spec):
        return spec.pooling_components
    return d_hidden


def _pool_matrix(spec: PipelineSpec, matrix: np.ndarray) -> np.ndarray:
    if spec.pooling == "mean":
        return mean_pool(matrix)
    if spec.pooling == "last_token":
        return select_last_token(matrix)
    if spec.pooling == "hybrid_last":
        return hybrid_concat(mean_pool(matrix), select_last_token(matrix))
    return pool_pca_mean(matrix, spec.pooling_components)


def _reduce_matrix(
    spec: PipelineSpec, matrix: np.ndarray
) -> tuple[np.ndarray, Optional[Exception]]:
    """Token matrix -> feature vector; returns (values, the error that made
    sequence-axis compression fall back to mean pooling, or None)."""
    if not _compresses_sequence(spec):
        return _pool_matrix(spec, matrix), None
    error = None
    try:
        values = apply_dimred(matrix, spec.dimred)
    except DegenerateVarianceError as exc:
        values = mean_pool(matrix)
        # Without its traceback the error no longer holds the token matrix.
        error = exc.with_traceback(None)
    if spec.pooling == "hybrid_last":
        values = hybrid_concat(values, select_last_token(matrix))
    return values, error


@dataclass
class Retrieval:
    """One patient's retrieval: its chunks, their vectors as one
    ``(n_chunks, dim)`` array, the trial's criteria, the ``(n_chunks,
    n_criteria)`` cosine matrix, and ``selected``, the row indices of the
    top k chunks, best first. Row i is ``chunks[i]``."""

    chunks: list
    chunk_vectors: np.ndarray
    criteria: list
    cosines: np.ndarray
    selected: np.ndarray


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
        chunk_vectors = np.asarray(embed_texts(self.provider, [c.text for c in chunks]))
        cosines = score_chunks(chunks, chunk_vectors, criteria, criteria_vectors)
        selected = select_top_k(cosines, self.spec.k_retrieve)
        return Retrieval(chunks, chunk_vectors, criteria, cosines, selected)

    def token_matrix(self, patient) -> Optional[np.ndarray]:
        """Retrieval + prompt + encode for one patient; None when unchunkable.

        For an http provider the rows are the selected chunks' vectors in
        rank order, and no prompt is built.
        """
        found = self.retrieve(patient)
        if found is None:
            return None
        if self.spec.provider.kind == "http":
            return found.chunk_vectors[found.selected]
        prompt = assemble_prompt(
            DEFAULT_INSTRUCTIONS,
            found.criteria,
            [found.chunks[i].text for i in found.selected],
        )
        return embed_tokens(self.provider, prompt)


def _retrieval_key(spec: PipelineSpec) -> tuple:
    """The fields retrieval and encoding read; specs equal on them share
    one feature pass."""
    return (spec.provider, spec.k_retrieve, spec.chunk_size, spec.chunk_overlap)


def _compute_features_multi(
    specs: Sequence[PipelineSpec],
    dataset: Dataset,
    modality: str,
    provider=None,
) -> list[FeatureSet]:
    """One feature set per spec, in spec order.

    Specs are grouped by retrieval key, and each group gets one
    retrieval/encode pass over the dataset, reduced per spec; the passes run
    in the order their groups first appear in ``specs``.
    """
    groups: dict[tuple, list[PipelineSpec]] = {}
    for spec in specs:
        groups.setdefault(_retrieval_key(spec), []).append(spec)
    passes = {
        key: iter(_feature_pass(group, dataset, modality, provider))
        for key, group in groups.items()
    }
    return [next(passes[_retrieval_key(spec)]) for spec in specs]


def _feature_pass(
    specs: Sequence[PipelineSpec],
    dataset: Dataset,
    modality: str,
    provider,
) -> list[FeatureSet]:
    """One retrieval/encode pass over the dataset, reduced per variant.

    The specs share one retrieval key; only the representation stage
    differs. Each variant gets one float64 matrix with a row per patient,
    allocated before the pass; a patient's reduced row is written into it as
    soon as the patient is encoded, and the variant's ``X`` is the filled
    prefix. The pass's peak is one matrix per variant plus one token matrix
    at a time; there is no list of rows and no stacking copy.
    """
    started = time.perf_counter()
    encoder = PatientEncoder(specs[0], dataset, modality, provider)
    d_hidden = encoder.provider.dim
    patients = dataset.patients
    matrices = [np.empty((len(patients), _feature_width(spec, d_hidden))) for spec in specs]
    # A skip depends on the retrieval key only, so the variants share them.
    ids: list[str] = []
    labels: list[float] = []
    skipped: list[tuple[str, str]] = []
    fallbacks: list[list[Exception]] = [[] for _ in specs]

    for patient in patients:
        matrix = encoder.token_matrix(patient)
        if matrix is None:
            skipped.append((patient.patient_id, "no_chunks"))
            continue
        for v, spec in enumerate(specs):
            values, fallback_error = _reduce_matrix(spec, matrix)
            if fallback_error is not None:
                fallbacks[v].append(fallback_error)
            matrices[v][len(ids)] = values
        ids.append(patient.patient_id)
        labels.append(float(patient.label.value))
    seconds = time.perf_counter() - started

    first = specs[0].variant_name
    if not ids:
        raise DataError(f"variant {first!r}: every patient was skipped")
    skip_fraction = len(skipped) / len(patients)
    if skip_fraction > MAX_SKIP_FRACTION:
        raise DataError(
            f"variant {first!r}: {len(skipped)} of {len(patients)} "
            f"patients skipped ({skip_fraction:.1%} > {MAX_SKIP_FRACTION:.0%})"
        )
    if skipped:
        logger.warning(
            "variants %s skipped %d patients: %s",
            ", ".join(spec.variant_name for spec in specs),
            len(skipped),
            skipped[:5],
        )
    y = np.asarray(labels)
    out: list[FeatureSet] = []
    for spec, errors, matrix in zip(specs, fallbacks, matrices):
        if errors:
            reasons = Counter(type(exc).__name__ for exc in errors)
            logger.warning(
                "variant %s: compression fell back to mean pooling for %d patients "
                "(%s); first: %s",
                spec.variant_name,
                len(errors),
                ", ".join(f"{name}: {count}" for name, count in sorted(reasons.items())),
                errors[0],
            )
        out.append(FeatureSet(ids, matrix[: len(ids)], y, skipped, len(errors), seconds))
    return out


# ---------------------------------------------------------------------------
# Training and evaluation on a split
# ---------------------------------------------------------------------------

def _derive_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


def _carve_validation(
    X: np.ndarray, y: np.ndarray, seed: int
) -> tuple[np.ndarray, np.ndarray, Optional[tuple[np.ndarray, np.ndarray]]]:
    """Stratified validation carve-out of ``VALIDATION_FRACTION`` of each
    class for early stopping; may return None."""
    n = X.shape[0]
    if n < 10:
        return X, y, None
    rng = np.random.default_rng(seed)
    val_idx: list[int] = []
    for label in (0.0, 1.0):
        idx = np.nonzero(y == label)[0]
        take = int(np.floor(VALIDATION_FRACTION * idx.shape[0]))
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


def _check_split(
    spec: PipelineSpec, features: FeatureSet, train_ids: set[str], test_ids: set[str]
) -> None:
    """Reject a cell the variant cannot be trained on: an empty train or test
    side after skips, or more hidden-axis components than its train rows
    allow (config loading has checked them against the feature width)."""
    train_rows = sum(pid in train_ids for pid in features.ids)
    if not train_rows or not any(pid in test_ids for pid in features.ids):
        raise DataError("split leaves an empty train or test side after skips")
    if spec.dimred is not None and spec.dimred.axis == "hidden":
        n = spec.dimred.resolved_components
        if n > train_rows - 1:
            raise ConfigError(
                f"variant {spec.variant_name!r}: hidden-axis compression to {n} "
                f"components needs more data (max {train_rows - 1} for {train_rows} "
                f"train rows x {features.X.shape[1]} dims)"
            )


def _train_eval(
    spec: PipelineSpec,
    features: FeatureSet,
    train_ids: set[str],
    test_ids: set[str],
) -> MetricReport:
    """Train on the cell's train side and evaluate on its test side; the
    cell has passed ``_check_split``."""
    train_idx = [i for i, pid in enumerate(features.ids) if pid in train_ids]
    test_idx = [i for i, pid in enumerate(features.ids) if pid in test_ids]

    Xtr, ytr = features.X[train_idx], features.y[train_idx]
    Xte, yte = features.X[test_idx], features.y[test_idx]

    if spec.dimred is not None and spec.dimred.axis == "hidden":
        pca = pca_fit(Xtr, spec.dimred.resolved_components)
        Xtr = pca_project(pca, Xtr)
        Xte = pca_project(pca, Xte)

    # The 0 stands for the training seed that configs no longer set, so
    # every derived seed is the one it was.
    train_seed = _derive_seed(spec.seed, 0, 1)

    if spec.classifier == "mlp":
        # The MLP trains in float32, the dtype of the features it is given;
        # the other classifiers and every prediction see float64.
        carve_seed = _derive_seed(spec.seed, 0, 2)
        core_x, core_y, validation = _carve_validation(Xtr.astype(np.float32), ytr, carve_seed)
        if spec.adapter_mode == "adapter":
            model, _ = train_with_adapter(core_x, core_y, spec.train, validation, seed=train_seed)
        else:
            model, _ = train_mlp(core_x, core_y, spec.train, validation, seed=train_seed)
    elif spec.classifier == "tree":
        model = train_tree(Xtr, ytr)
    elif spec.classifier == "forest":
        model = train_forest(Xtr, ytr, seed=train_seed)
    else:
        model = train_svm(Xtr, ytr)

    probs = predict_proba(model, Xte)
    return compute_report(yte, probs, threshold=0.5)


def _spec_hash(spec: PipelineSpec, dataset: str, modality: str, split: SplitSpec) -> str:
    return config_hash(
        {
            "spec": asdict(spec),
            "dataset": dataset,
            "modality": modality,
            "split": asdict(split),
        }
    )


# ---------------------------------------------------------------------------
# Task sweeps
# ---------------------------------------------------------------------------

# Each task's arms, in output order: overrides of a configured variant,
# applied with ``replace``. task5 and task6 run each configured variant as it
# is; task2's arms come from its providers (``_arms``).
_ARMS: dict[str, list[dict]] = {
    "task1": [
        {"classifier": clf, "dimred": cfg, "name": f"{clf}{suffix}"}
        for clf in ("forest", "tree", "svm", "mlp")
        for cfg, suffix in ((None, ""), (DimRedConfig(), "+dimred"))
    ],
    "task3": [
        {"dimred": dimred, "pooling": pooling, "name": name}
        for name, dimred, pooling in (
            ("sequence-1", DimRedConfig(axis="sequence", n_components=1), "mean"),
            *(
                (f"hidden-{n}", DimRedConfig(axis="hidden", n_components=n), "mean")
                for n in (16, 32, 64, 128)
            ),
            ("last_token", None, "last_token"),
            ("hybrid", DimRedConfig(axis="sequence", n_components=1), "hybrid_last"),
        )
    ],
    "task4": [
        {"classifier": "mlp", "dimred": cfg, "adapter_mode": mode, "name": f"{kind}:{mode}"}
        for cfg, kind in ((None, "RAG-MLP"), (DimRedConfig(), "RAG-DimRed-MLP"))
        for mode in ("frozen", "adapter")
    ],
    "task5": [{}],
    "task6": [{}],
}


def _arms(config: ExperimentConfig, base: PipelineSpec) -> list[dict]:
    """The overrides that make ``base`` into the task's arms."""
    if config.task != "task2":
        return _ARMS[config.task]
    providers = config.providers or (
        ProviderSpec(kind="mock", name="mock-a", dim=base.provider.dim, seed=101),
        ProviderSpec(kind="mock", name="mock-b", dim=max(32, base.provider.dim // 2), seed=202),
        ProviderSpec(kind="mock", name="mock-c", dim=base.provider.dim + 32, seed=303),
    )
    cfg = base.dimred or DimRedConfig()
    return [
        {"provider": p, "dimred": cfg, "classifier": "mlp", "name": f"backbone-{p.resolved_name}"}
        for p in providers
    ]


def _variants(config: ExperimentConfig) -> list[PipelineSpec]:
    """Every configured variant's arms, in output order."""
    return [replace(base, **arm) for base in config.variants for arm in _arms(config, base)]


def _cells(
    config: ExperimentConfig, dataset: Dataset
) -> list[tuple[SplitSpec, Optional[str], Optional[float]]]:
    """The (split, trial, exclusion) cells every variant is trained on: the
    configured split, or task6's trial x exclusion grid."""
    if config.task != "task6":
        return [(config.split, None, None)]
    trial_ids = dataset.trial_ids()
    if len(trial_ids) < 2:
        raise DataError("task6 needs at least 2 trials for cross-trial evaluation")
    return [
        (replace(config.split, mode="cross_trial", target_trial=t, exclusion_fraction=e), t, e)
        for t in trial_ids
        for e in config.exclusions
    ]


def _check_unread_keys(config: ExperimentConfig) -> None:
    """Reject a config key that no run of the task reads."""
    task = config.task
    for key, unread, reason in (
        ("providers", config.providers and task != "task2", "only task2 sweeps providers"),
        ("datasets", config.datasets and task != "task5", "only task5 runs a list of datasets"),
        ("dataset", config.dataset is not None and task == "task5", "task5 reads 'datasets'"),
        ("modality", config.modality != "mixed" and task == "task6", "task6 runs 'mixed'"),
        (
            "split",
            task == "task6" and replace(config.split, seed=0) != SplitSpec(),
            "task6 reads only the split's seed",
        ),
    ):
        if unread:
            raise ConfigError(f"{key!r} is read by no {task} run; {reason}")


def _check_arms(config: ExperimentConfig) -> None:
    """Reject what the task's arms cannot run: a variant key that every arm
    replaces, a ``pca_mean`` pooling without its width, more hidden-axis
    components than an arm's feature width, or a variant name that two arms
    share, whose rows the ``variant`` column could not tell apart. An
    adapter arm needs no check: its adapter is square, so it keeps the
    feature width."""
    for base in config.variants:
        replaced = set.intersection(*(set(arm) for arm in _arms(config, base)))
        if config.task == "task2":
            # task2's arms start from the variant's dimred, and from its
            # provider's dim unless 'providers' is set.
            replaced -= {"dimred"} if config.providers else {"dimred", "provider"}
        for key in sorted(replaced):
            if getattr(base, key) != getattr(PipelineSpec, key):
                raise ConfigError(f"{key!r} is read by no {config.task} run; every arm sets it")
    arms = _variants(config)
    for spec in arms:
        width = _feature_width(spec, spec.provider.dim)
        if width is None:
            raise ConfigError("pooling 'pca_mean' requires pooling_components")
        if spec.dimred is not None and spec.dimred.axis == "hidden":
            n = spec.dimred.resolved_components
            if n > width:
                raise ConfigError(
                    f"variant {spec.variant_name!r}: hidden-axis compression to {n} "
                    f"components exceeds its feature width ({width} dims)"
                )
    names = [spec.variant_name for spec in arms]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(
                f"variant name {name!r} is repeated; each run of a task needs its own name"
            )


def run_task(config: ExperimentConfig) -> list[RunResult]:
    """Execute one task's sweep; returns one ``RunResult`` per run, in
    dataset, cell, variant order.

    Every cell is split before the feature pass, so a split that leaves a
    side empty fails before any retrieval, and is checked against every
    variant before the first model is trained.
    """
    sources = config.datasets if config.task == "task5" else (config.dataset,)
    variants = _variants(config)
    log_path = str(Path(config.output_dir) / "run.log") if config.output_dir else None
    results: list[RunResult] = []

    for source in sources:
        dataset = source.load()
        cells = _cells(config, dataset)
        splits = []
        for split, _, _ in cells:
            started = time.perf_counter()
            train_ids, test_ids = make_split(dataset, split)
            splits.append((train_ids, test_ids, time.perf_counter() - started))
        feature_sets = _compute_features_multi(variants, dataset, config.modality)
        for train_ids, test_ids, _ in splits:
            for spec, features in zip(variants, feature_sets):
                _check_split(spec, features, train_ids, test_ids)

        for (split, trial, exclusion), (train_ids, test_ids, split_seconds) in zip(cells, splits):
            for spec, features in zip(variants, feature_sets):
                started = time.perf_counter()
                report = _train_eval(spec, features, train_ids, test_ids)
                cell_seconds = split_seconds + time.perf_counter() - started
                run = RunResult(
                    task=config.task,
                    variant=spec.variant_name,
                    dataset=source.name,
                    trial=trial,
                    exclusion=exclusion,
                    seed=spec.seed,
                    config_hash=_spec_hash(spec, source.name, config.modality, split),
                    stages=list(spec.stages()),
                    skipped=len(features.skipped),
                    fallbacks=features.fallbacks,
                    wall_seconds=features.seconds + cell_seconds,
                    feature_seconds=features.seconds,
                    report=report,
                    log_path=log_path,
                )
                results.append(run)
                logger.info(
                    "run %s/%s dataset=%s trial=%s exclusion=%s macro_f1=%s auroc=%s",
                    run.task,
                    run.variant,
                    run.dataset,
                    run.trial,
                    run.exclusion,
                    f"{report.macro_f1:.4f}",
                    "absent" if report.auroc is None else f"{report.auroc:.4f}",
                )

    return results


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------

def make_output_dir(path: str | Path) -> Path:
    """Create the directory ``path`` and its parents; a path that cannot be
    a directory is a ``DataError`` that names it."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {out}: {exc}") from exc
    return out


def write_outputs(
    results: Sequence[RunResult],
    output_dir: str | Path,
    config: Optional[ExperimentConfig] = None,
) -> dict:
    """Write results.csv and manifest.json to ``output_dir``; return the manifest.

    results.csv holds one row per run: its ``KEY_COLUMNS`` and then its
    report's metric columns, and no timing data, so reruns stay
    byte-identical regardless of machine load. manifest.json
    adds the resolved config and its hash, and lists each run as its
    ``RunResult`` fields in field order.
    """
    out = make_output_dir(output_dir)
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(KEY_COLUMNS + CSV_COLUMNS)
    for r in results:
        keys = (getattr(r, name) for name in KEY_COLUMNS)
        writer.writerow([csv_cell(v) for v in (*keys, *astuple(r.report))])
    write_file(out / "results.csv", table.getvalue())

    resolved = None if config is None else asdict(config)
    manifest = {
        "generator": f"trialmatch {__version__}",
        "config": resolved,
        "config_hash": None if resolved is None else config_hash(resolved),
        "files": ["results.csv", "manifest.json"],
        "runs": [asdict(r) for r in results],
    }
    write_file(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    return manifest
