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
config key that no arm of the task reads is a ``ConfigError``. Each
dataset gets one feature pass for all its variants: it scores each patient's
chunks once per (provider, chunking) and encodes one prompt per k, which
each variant of that k reduces. Every variant is then trained and evaluated
on every cell.

A config is checked once, when it is built. ``ProviderSpec`` and
``PipelineSpec`` raise every ``ConfigError`` that one variant decides;
``ExperimentConfig`` builds each arm as a ``PipelineSpec``, checks its
feature width, and adds the rules that span arms. ``run_task`` then raises
data errors, plus one ``ConfigError`` that needs the split: more hidden-axis
components than a cell's train rows allow. ``_cell_rows`` raises it, and an
empty side after skips, as it maps each cell's patient ids to feature rows,
once per cell before the first fit. Two checks wait for
the pass: an http provider's endpoint, a deployment setting looked up when
the provider is built, and ``pca_mean``'s components against each prompt's
token rows, which ``pool_pca_mean`` checks.

Features are built on one thread, one patient at a time in dataset order.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import time
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
from .errors import ConfigError, DataError, DegenerateVarianceError, reject_unread
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
    ``seed``) is a ``ConfigError``, so equal backends share one provider
    in a feature pass."""

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
        unread = ("endpoint", "model") if self.kind == "mock" else ("seed",)
        reject_unread(self, unread, f"{self.kind} provider")
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
    Variant A (RAG-MLP). Sequence-axis compression keeps one component;
    hidden-axis compression keeps the ``n_components`` it names, with no
    default, and projects the pooled vectors. Each rule below is a
    ``ConfigError``, so every spec that loads is one computation:

    - ``pca_mean`` pooling requires ``pooling_components`` in [1,
      ``provider.dim``]; any other pooling leaves it unset.
    - Under sequence-axis compression ``pooling`` is ``mean``, whose mean
      pool is the compression's fallback, or ``hybrid_last``, which appends
      the last token row.
    - ``adapter_mode: "adapter"`` requires the ``mlp`` classifier.

    The rule that hidden-axis compression keeps at most ``feature_width``
    components is ``check_width``, which each arm of a task runs.
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
        if self.pooling == "pca_mean":
            n, dim = self.pooling_components, self.provider.dim
            if n is None or not 1 <= n <= dim:
                raise ConfigError(
                    f"pooling 'pca_mean' requires pooling_components in [1, {dim}], got {n}"
                )
        else:
            reject_unread(self, ("pooling_components",), f"{self.pooling} pooling")
        if self.dimred is not None and self.dimred.axis == "sequence":
            if self.pooling not in ("mean", "hybrid_last"):
                raise ConfigError(
                    f"pooling {self.pooling!r} is read by no sequence-axis compression; "
                    "it takes 'mean' or 'hybrid_last'"
                )
        if self.classifier != "mlp":
            reject_unread(self, ("adapter_mode",), f"{self.classifier} classifier")

    @property
    def feature_width(self) -> int:
        """Length of ``_reduce_matrix``'s rows for this provider's tokens;
        an adapter is square, so it keeps this width."""
        if self.pooling == "pca_mean":
            return self.pooling_components
        dim = self.provider.dim
        return 2 * dim if self.pooling == "hybrid_last" else dim

    def check_width(self) -> None:
        """Reject hidden-axis compression to more components than
        ``feature_width``. ``ExperimentConfig`` calls this on each arm that
        runs: a task2 variant is never run at its own provider's width, so
        building it checks no width. ``_cell_rows`` checks the components
        against a cell's train rows."""
        if self.dimred is not None and self.dimred.axis == "hidden":
            n, width = self.dimred.n_components, self.feature_width
            if n > width:
                raise ConfigError(
                    f"variant {self.variant_name!r}: hidden-axis compression to {n} "
                    f"components exceeds its feature width ({width} dims)"
                )

    @property
    def variant_name(self) -> str:
        if self.name:
            return self.name
        suffix = "+dimred" if self.dimred is not None else ""
        return f"{self.classifier}{suffix}"


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
        unread = ("patients_path", "trials_path") if synthetic else ("seed",)
        reject_unread(self, unread, f"{'synthetic' if synthetic else 'file'} dataset source")

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
        try:
            obj = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: not valid UTF-8") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc.msg}") from exc
        except ValueError as exc:  # an integer past Python's digit limit
            raise ConfigError(f"{path}: {exc}") from None
        except RecursionError:
            raise ConfigError(f"{path}: invalid JSON: nested too deeply") from None
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
    All runs on one dataset share its one pass and repeat its time, so
    summing ``wall_seconds`` over them counts the pass once per run.
    The entry lists no stages: they follow from the variant's config, which
    the manifest records.
    """

    task: str
    variant: str
    dataset: str
    trial: Optional[str]
    exclusion: Optional[float]
    seed: int
    config_hash: str
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
    """One dataset's features for every variant, in variant order.

    A patient is skipped only when ``build_chunks`` finds no text to cut in
    its record under the modality, and no variant's setting changes that,
    so every variant keeps the same rows: ``ids``, ``y``, ``skipped`` and
    ``seconds`` are the dataset's, and ``X[v]`` and ``fallbacks[v]`` are
    variant v's."""

    ids: list[str]
    X: list[np.ndarray]
    y: np.ndarray
    skipped: list[tuple[str, str]]
    fallbacks: list[int]
    seconds: float  # duration of the feature pass


def _reduce_matrix(
    spec: PipelineSpec, matrix: np.ndarray
) -> tuple[np.ndarray, Optional[Exception]]:
    """Token matrix -> feature row; returns (values, the error that made
    sequence-axis compression fall back to mean pooling, or None).

    ``last_token`` and ``pca_mean`` pool on their own (``PipelineSpec``
    admits no sequence-axis compression with them). Otherwise the row is the
    sequence-axis compression, if any, or the mean pool, and ``hybrid_last``
    appends the last token row to it.
    """
    if spec.pooling == "last_token":
        return select_last_token(matrix), None
    if spec.pooling == "pca_mean":
        return pool_pca_mean(matrix, spec.pooling_components), None
    error = None
    if spec.dimred is not None and spec.dimred.axis == "sequence":
        try:
            values = apply_dimred(matrix, spec.dimred)
        except DegenerateVarianceError as exc:
            values, error = mean_pool(matrix), exc
    else:
        values = mean_pool(matrix)
    if spec.pooling == "hybrid_last":
        values = hybrid_concat(values, select_last_token(matrix))
    return values, error


@dataclass
class Retrieval:
    """One patient's scored chunks: its chunks, their vectors as one
    ``(n_chunks, dim)`` array, the trial's criteria and the ``(n_chunks,
    n_criteria)`` cosine matrix. Row i is ``chunks[i]``. Every k selects
    from the same scores."""

    chunks: list
    chunk_vectors: np.ndarray
    criteria: list
    cosines: np.ndarray


class PatientEncoder:
    """Retrieval and encoding with one provider, for any chunking and k;
    each variant reduces the token matrices on top. A trial's criteria are
    embedded once."""

    def __init__(self, provider: ProviderSpec, dataset: Dataset, modality: str):
        self.spec = provider
        self.dataset = dataset
        self.modality = modality
        self.provider = provider.build()
        self._criteria_cache: dict[str, tuple[list, list[np.ndarray]]] = {}

    def _criteria_for(self, trial_id: str):
        cached = self._criteria_cache.get(trial_id)
        if cached is None:
            criteria = list(self.dataset.trial(trial_id).criteria)
            vectors = embed_texts(self.provider, [c.text for c in criteria])
            cached = (criteria, vectors)
            self._criteria_cache[trial_id] = cached
        return cached

    def retrieve(self, patient, chunk_size: int, overlap: int) -> Optional[Retrieval]:
        """Chunk, embed and score for one patient; None when unchunkable."""
        chunks = build_chunks(patient, chunk_size, overlap, self.modality)
        if not chunks:
            return None
        criteria, criteria_vectors = self._criteria_for(patient.trial_id)
        chunk_vectors = np.asarray(embed_texts(self.provider, [c.text for c in chunks]))
        cosines = score_chunks(chunks, chunk_vectors, criteria, criteria_vectors)
        return Retrieval(chunks, chunk_vectors, criteria, cosines)

    def token_matrix(self, found: Retrieval, k: int) -> np.ndarray:
        """Select the top k of ``found``'s chunks, build their prompt and
        encode it.

        For an http provider the rows are the selected chunks' vectors in
        rank order, and no prompt is built.
        """
        selected = select_top_k(found.cosines, k)
        if self.spec.kind == "http":
            return found.chunk_vectors[selected]
        prompt = assemble_prompt(
            DEFAULT_INSTRUCTIONS,
            found.criteria,
            [found.chunks[i].text for i in selected],
        )
        return embed_tokens(self.provider, prompt)


def _retrieval_key(spec: PipelineSpec) -> tuple:
    """The fields chunking, embedding and scoring read: a feature pass
    scores each patient once per key, whatever the k of its variants."""
    return (spec.provider, spec.chunk_size, spec.chunk_overlap)


def _feature_pass(
    specs: Sequence[PipelineSpec],
    dataset: Dataset,
    modality: str,
) -> FeatureSet:
    """One walk over the dataset's patients that builds every variant's rows.

    One ``PatientEncoder`` serves each distinct provider. Each patient is
    scored once per retrieval key, its prompt is encoded once per (key, k),
    and the variants of that (key, k) reduce the token matrix one after
    another, so ``dimred``'s memo serves them. Each variant gets one float64
    matrix with a row per patient, allocated before the pass; a patient's
    reduced row is written into it as soon as the patient is encoded, and
    the variant's ``X`` is the filled prefix. The pass's peak is one matrix
    per variant, one patient's scored chunks per key and two token matrices
    (the last (key, k)'s and the next's); there is no list of rows and no
    stacking copy.
    """
    started = time.perf_counter()
    encoders: dict[ProviderSpec, PatientEncoder] = {}
    groups: dict[tuple, list[int]] = {}  # (retrieval key, k) -> variant indices
    for v, spec in enumerate(specs):
        if spec.provider not in encoders:
            encoders[spec.provider] = PatientEncoder(spec.provider, dataset, modality)
        groups.setdefault((_retrieval_key(spec), spec.k_retrieve), []).append(v)
    keys = list(dict.fromkeys(key for key, _ in groups))
    patients = dataset.patients
    matrices = [np.empty((len(patients), spec.feature_width)) for spec in specs]
    ids: list[str] = []
    labels: list[float] = []
    skipped: list[tuple[str, str]] = []
    fallbacks = [0] * len(specs)
    first_fallback: dict[int, str] = {}  # variant -> its first fallback's error

    for patient in patients:
        found = {key: encoders[key[0]].retrieve(patient, *key[1:]) for key in keys}
        if any(f is None for f in found.values()):
            skipped.append((patient.patient_id, "no_chunks"))
            continue
        for (key, k), members in groups.items():
            matrix = encoders[key[0]].token_matrix(found[key], k)
            for v in members:
                values, fallback_error = _reduce_matrix(specs[v], matrix)
                if fallback_error is not None:
                    fallbacks[v] += 1
                    first_fallback.setdefault(v, str(fallback_error))
                matrices[v][len(ids)] = values
        ids.append(patient.patient_id)
        labels.append(float(patient.label.value))
    seconds = time.perf_counter() - started

    names = ", ".join(spec.variant_name for spec in specs)
    if not ids:
        raise DataError(f"variants {names}: every patient was skipped")
    skip_fraction = len(skipped) / len(patients)
    if skip_fraction > MAX_SKIP_FRACTION:
        raise DataError(
            f"variants {names}: {len(skipped)} of {len(patients)} "
            f"patients skipped ({skip_fraction:.1%} > {MAX_SKIP_FRACTION:.0%})"
        )
    if skipped:
        logger.warning("variants %s skipped %d patients: %s", names, len(skipped), skipped[:5])
    for v, spec in enumerate(specs):
        if fallbacks[v]:
            logger.warning(
                "variant %s: compression fell back to mean pooling for %d patients; first: %s",
                spec.variant_name,
                fallbacks[v],
                first_fallback[v],
            )
    X = [matrix[: len(ids)] for matrix in matrices]
    return FeatureSet(ids, X, np.asarray(labels), skipped, fallbacks, seconds)


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


def _cell_rows(
    specs: Sequence[PipelineSpec],
    features: FeatureSet,
    train_ids: set[str],
    test_ids: set[str],
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks of the feature rows on a cell's train and test sides,
    which every variant shares. Rejects a cell that some variant cannot be
    trained on: an empty train or test side after skips, or more hidden-axis
    components than its train rows allow. ``PipelineSpec.check_width`` has
    checked them against the feature width; this check needs the data."""
    train = np.array([pid in train_ids for pid in features.ids])
    test = np.array([pid in test_ids for pid in features.ids])
    train_rows = int(train.sum())
    if not train_rows or not test.any():
        raise DataError("split leaves an empty train or test side after skips")
    for spec, X in zip(specs, features.X):
        if spec.dimred is not None and spec.dimred.axis == "hidden":
            n = spec.dimred.n_components
            if n > train_rows - 1:
                raise ConfigError(
                    f"variant {spec.variant_name!r}: hidden-axis compression to {n} "
                    f"components needs more data (max {train_rows - 1} for {train_rows} "
                    f"train rows x {X.shape[1]} dims)"
                )
    return train, test


def _train_eval(
    spec: PipelineSpec, X: np.ndarray, y: np.ndarray, train: np.ndarray, test: np.ndarray
) -> MetricReport:
    """Train one variant on its feature rows ``X`` of a cell's train side
    and evaluate on its test side, as ``_cell_rows`` masked them."""
    Xtr, ytr = X[train], y[train]
    Xte, yte = X[test], y[test]

    if spec.dimred is not None and spec.dimred.axis == "hidden":
        pca = pca_fit(Xtr, spec.dimred.n_components)
        Xtr = pca_project(pca, Xtr)
        Xte = pca_project(pca, Xte)

    # The 0 stands for the training seed that configs no longer set, so
    # every derived seed is the one it was.
    train_seed = _derive_seed(spec.seed, 0, 1)

    if spec.classifier == "mlp":
        carve_seed = _derive_seed(spec.seed, 0, 2)
        core_x, core_y, validation = _carve_validation(Xtr, ytr, carve_seed)
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
# is; task2's arms come from its providers or ``TASK2_BACKBONES`` (``_arms``).
_ARMS: dict[str, list[dict]] = {
    "task1": [
        {"classifier": clf, "dimred": cfg, "name": f"{clf}{suffix}"}
        for clf in ("forest", "tree", "svm", "mlp")
        for cfg, suffix in ((None, ""), (DimRedConfig(), "+dimred"))
    ],
    "task3": [
        {"dimred": dimred, "pooling": pooling, "name": name}
        for name, dimred, pooling in (
            ("sequence-1", DimRedConfig(axis="sequence"), "mean"),
            *(
                (f"hidden-{n}", DimRedConfig(axis="hidden", n_components=n), "mean")
                for n in (16, 32, 64, 128)
            ),
            ("last_token", None, "last_token"),
            ("hybrid", DimRedConfig(axis="sequence"), "hybrid_last"),
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


# task2's backbone sweep when a config sets no ``providers``.
TASK2_BACKBONES = (
    ProviderSpec(kind="mock", name="mock-a", dim=128, seed=101),
    ProviderSpec(kind="mock", name="mock-b", dim=64, seed=202),
    ProviderSpec(kind="mock", name="mock-c", dim=160, seed=303),
)


def _arms(config: ExperimentConfig, base: PipelineSpec) -> list[dict]:
    """The overrides that make ``base`` into the task's arms. task2 makes
    one arm per provider of ``providers``, or of ``TASK2_BACKBONES`` when
    that is unset, and sets ``dimred`` only where ``base`` leaves it unset."""
    if config.task != "task2":
        return _ARMS[config.task]
    dimred = {"dimred": DimRedConfig()} if base.dimred is None else {}
    return [
        {"provider": p, **dimred, "classifier": "mlp", "name": f"backbone-{p.resolved_name}"}
        for p in config.providers or TASK2_BACKBONES
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
    for key, read, reason in (
        ("providers", task == "task2", "only task2 sweeps providers"),
        ("datasets", task == "task5", "only task5 runs a list of datasets"),
        ("dataset", task != "task5", "task5 reads 'datasets'"),
        ("modality", task != "task6", "task6 runs 'mixed'"),
    ):
        if not read:
            reject_unread(config, (key,), f"{task} run; {reason}")
    if task == "task6" and replace(config.split, seed=0) != SplitSpec():
        raise ConfigError("'split' is read by no task6 run; task6 reads only the split's seed")


def _check_arms(config: ExperimentConfig) -> None:
    """Reject what the task's arms cannot run: a variant key that every arm
    sets, an arm whose ``PipelineSpec.check_width`` fails, or a variant
    name that two arms share, whose rows the ``variant`` column could not
    tell apart. Building an arm runs ``PipelineSpec``'s own checks. task2
    is no exception: every arm sets its provider, from ``providers`` or
    ``TASK2_BACKBONES``, and none sets a ``dimred`` that the variant sets."""
    for base in config.variants:
        replaced = set.intersection(*(set(arm) for arm in _arms(config, base)))
        reject_unread(base, sorted(replaced), f"{config.task} run; every arm sets it")
    arms = _variants(config)
    for spec in arms:
        spec.check_width()
    names = [spec.variant_name for spec in arms]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(
                f"variant name {name!r} is repeated; each run of a task needs its own name"
            )


def run_task(config: ExperimentConfig) -> list[RunResult]:
    """Execute one task's sweep; returns one ``RunResult`` per run, in
    dataset, cell, variant order.

    Every cell is split before the dataset's one feature pass, so a split
    that leaves a side empty fails before any retrieval. Each cell's rows
    are then looked up once, and checked for every variant, before the
    first model is trained.
    """
    sources = config.datasets if config.task == "task5" else (config.dataset,)
    variants = _variants(config)
    log_path = str(Path(config.output_dir) / "run.log")
    results: list[RunResult] = []

    for source in sources:
        dataset = source.load()
        cells = _cells(config, dataset)
        splits = []
        for split, _, _ in cells:
            started = time.perf_counter()
            train_ids, test_ids = make_split(dataset, split)
            splits.append((train_ids, test_ids, time.perf_counter() - started))
        features = _feature_pass(variants, dataset, config.modality)
        rows = [
            _cell_rows(variants, features, train_ids, test_ids)
            for train_ids, test_ids, _ in splits
        ]

        for (split, trial, exclusion), (_, _, split_seconds), (train, test) in zip(
            cells, splits, rows
        ):
            for spec, X, fallbacks in zip(variants, features.X, features.fallbacks):
                started = time.perf_counter()
                report = _train_eval(spec, X, features.y, train, test)
                cell_seconds = split_seconds + time.perf_counter() - started
                run = RunResult(
                    task=config.task,
                    variant=spec.variant_name,
                    dataset=source.name,
                    trial=trial,
                    exclusion=exclusion,
                    seed=spec.seed,
                    config_hash=_spec_hash(spec, source.name, config.modality, split),
                    skipped=len(features.skipped),
                    fallbacks=fallbacks,
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
