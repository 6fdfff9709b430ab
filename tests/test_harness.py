import hashlib
import json
import logging
import re
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import k_sweep_config, multi_key_config, tiny_patient, tiny_trial
from trialmatch import cli, harness, representation
from trialmatch.classifiers import TrainConfig
from trialmatch.corpus import (
    Dataset,
    EligibilityLabel,
    PatientRecord,
    SplitSpec,
    SyntheticConfig,
    build_chunks,
    generate_synthetic,
    write_dataset,
)
from trialmatch.embedding import ENDPOINT_ENV_VAR, MockProvider
from trialmatch.errors import ConfigError, DataError
from trialmatch.harness import (
    ExperimentConfig,
    FeatureSet,
    PatientEncoder,
    PipelineSpec,
    _feature_pass,
    config_hash,
    run_task,
    write_outputs,
)
from trialmatch.metrics import compute_report
from trialmatch.representation import DimRedConfig
from trialmatch.retrieval import DEFAULT_K_RETRIEVE


class TestConfigLoading:
    def test_round_trip(self):
        config = ExperimentConfig.from_dict(
            {
                "task": "task2",
                "dataset": {"name": "s", "synthetic": {"n_trials": 3}, "seed": 4},
                "variants": [
                    {"dimred": {"axis": "hidden", "n_components": 16}, "train": {"max_epochs": 5}}
                ],
                "split": {"test_fraction": 0.3},
                "providers": [{"kind": "mock", "dim": 128}],
            }
        )
        assert ExperimentConfig.from_dict(json.loads(json.dumps(asdict(config)))) == config
        assert config.variants[0].train.max_epochs == 5
        assert config.variants[0].dimred == DimRedConfig(axis="hidden", n_components=16)

    def test_task2_checks_the_width_of_its_providers_only(self):
        # The base's own provider (mock at dim 128) is run by no arm.
        config = ExperimentConfig.from_dict(
            {
                "task": "task2",
                "dataset": {"synthetic": {"n_trials": 2}},
                "variants": [{"dimred": {"axis": "hidden", "n_components": 200}}],
                "providers": [{"kind": "mock", "dim": 256}],
            }
        )
        assert [spec.variant_name for spec in harness._variants(config)] == ["backbone-mock"]

    @pytest.mark.parametrize(
        "obj, key",
        [
            ({"task": "task1", "variants": [{"clasifier": "svm"}]}, "clasifier"),
            ({"task": "task1", "variants": [{"train": {"max_epoch": 5}}]}, "max_epoch"),
            ({"task": "task1", "variants": [{"dimred": {"axes": "hidden"}}]}, "axes"),
            ({"task": "task1", "variants": [{"provider": {"dims": 8}}]}, "dims"),
            ({"task": "task1", "dataset": {"synthetic": {"n_trial": 2}}}, "n_trial"),
            ({"task": "task1", "dataset": {"patient_path": "p"}}, "patient_path"),
            ({"task": "task1", "split": {"seeds": 1}}, "seeds"),
            ({"task": "task1", "thread": 2}, "thread"),
            ({"task": "task3", "variants": [{"dimred": {"fit_scope": "dataset"}}]}, "fit_scope"),
            # The MLP's step settings are keyword defaults of train_mlp, and
            # its adapter is always square.
            ({"task": "task1", "variants": [{"train": {"learning_rate": 0.01}}]}, "learning_rate"),
            ({"task": "task1", "variants": [{"train": {"seed": 3}}]}, "seed"),
            ({"task": "task4", "variants": [{"adapter_dim": 8}]}, "adapter_dim"),
        ],
    )
    def test_unknown_key_is_named(self, obj, key):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            ExperimentConfig.from_dict(obj)

    def test_threads_other_than_1_is_rejected(self):
        message = "^threads must be 1: feature construction runs on one thread$"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict({"task": "task1", "threads": 2})

    def test_missing_task_is_named(self):
        with pytest.raises(ConfigError, match="missing required key 'task'"):
            ExperimentConfig.from_dict({"variants": [{}]})

    def test_wrong_value_type_is_a_config_error(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"task": "task1", "threads": "two"})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"task": "task1", "variants": [[]]})

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"task": "task1", "threads": True}, "key 'threads' in config must be int"),
            ({"task": "task1", "variants": [[]]}, "variants[0] must be a JSON object"),
            (
                {"task": "task1", "variants": [{"provider": {"dim": "128"}}]},
                "key 'dim' in provider must be int",
            ),
            (
                {"task": "task6", "exclusions": [1.0, "x"]},
                "key 'exclusions[1]' in config must be float",
            ),
            (
                {"task": "task6", "exclusions": 1.0},
                "key 'exclusions' in config must be a JSON array",
            ),
        ],
    )
    def test_wrong_value_type_names_the_key(self, obj, message):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict(obj)
        assert message in str(info.value)

    @pytest.mark.parametrize("task", ["task1", "task2", "task3", "task4", "task6"])
    def test_a_second_variant_is_rejected_outside_task5(self, task):
        obj = {"task": task, "variants": [{}, {"k_retrieve": 2}]}
        with pytest.raises(ConfigError, match=f"^{task} takes one variant, got 2"):
            ExperimentConfig.from_dict(obj)

    def test_int_is_read_as_float(self):
        config = ExperimentConfig.from_dict(
            {
                "task": "task6",
                "dataset": {"synthetic": {"signal_strength": 1}},
                "exclusions": [1, 0.5],
            }
        )
        assert type(config.dataset.synthetic.signal_strength) is float
        assert config.dataset.synthetic.signal_strength == 1.0
        assert [type(e) for e in config.exclusions] == [float, float]

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (PipelineSpec(), "4ad07305548ed562"),
            (
                PipelineSpec(
                    dimred=DimRedConfig(axis="hidden", n_components=16),
                    train=TrainConfig(max_epochs=7, patience=3),
                ),
                "9574975596d50be4",
            ),
        ],
    )
    def test_spec_hash_is_unchanged(self, spec, digest):
        # These hashes fill the config_hash column of results.csv.
        assert config_hash(asdict(spec)) == digest


class TestArms:
    """Each task's arms in output order, pinned by name and by a digest of
    their config hashes (re-recorded when ``PipelineSpec`` dropped its
    predictor settings, and again when it dropped the MLP's step settings
    and ``adapter_dim``; the names did not move). task3's were re-recorded
    when its sequence-axis arms stopped spelling out one component.
    ``OTHER``'s pooling is ``hybrid_last``, which every arm kind reads
    (``last_token`` is a ``ConfigError`` under sequence-axis compression);
    task1's, task2's, task4's and task6's second-base digests were
    re-recorded when it moved from ``last_token``. The second base sets the
    fields of ``OTHER`` that some arm of the task reads, so an arm that
    stops overriding one shows; a key that every arm sets is a
    ``ConfigError`` (``TestConfigChecks``)."""

    OTHER = {
        "pooling": "hybrid_last",
        "classifier": "svm",
        "dimred": {"axis": "hidden", "n_components": 8},
    }
    READ = {
        "task1": ("pooling",),
        "task2": ("pooling", "dimred"),
        "task3": ("classifier",),
        "task4": ("pooling",),
        "task6": tuple(OTHER),
    }
    PROVIDERS = [
        {"kind": "mock", "name": "small", "dim": 32, "seed": 7},
        {"kind": "mock", "dim": 48},
    ]
    TASK1 = [f"{c}{s}" for c in ("forest", "tree", "svm", "mlp") for s in ("", "+dimred")]
    TASK2 = ["backbone-mock-a", "backbone-mock-b", "backbone-mock-c"]
    TASK3 = ["sequence-1", *(f"hidden-{n}" for n in (16, 32, 64, 128)), "last_token", "hybrid"]
    TASK4 = [f"RAG-{k}MLP:{m}" for k in ("", "DimRed-") for m in ("frozen", "adapter")]

    @pytest.mark.parametrize(
        "task, base, providers, names, digest",
        [
            ("task1", {}, [], TASK1, "f63465d02cd98018"),
            ("task1", OTHER, [], TASK1, "738e8a52fa1efcf1"),
            ("task2", {}, [], TASK2, "c886dd45b9be4d2f"),
            ("task2", OTHER, [], TASK2, "350b657d80c597ae"),
            ("task2", {}, PROVIDERS, ["backbone-small", "backbone-mock"], "8c1657f9e33ed362"),
            ("task3", {}, [], TASK3, "4ffbcbe2b5097444"),
            ("task3", OTHER, [], TASK3, "f70bae421241ae91"),
            ("task4", {}, [], TASK4, "1fbed745924813e3"),
            ("task4", OTHER, [], TASK4, "78a789637929e8db"),
            ("task6", {}, [], ["mlp"], "56ca5cb910e5a2e8"),
            ("task6", OTHER, [], ["svm+dimred"], "7e5fe2cb09b0a717"),
        ],
    )
    def test_arms_are_unchanged(self, task, base, providers, names, digest):
        base = {key: value for key, value in base.items() if key in self.READ[task]}
        obj = {"task": task, "variants": [base], "providers": providers}
        config = ExperimentConfig.from_dict({**obj, "dataset": {"synthetic": {}}})
        specs = harness._variants(config)
        pairs = [
            (spec.variant_name, harness._spec_hash(spec, "tiny", config.modality, config.split))
            for spec in specs
        ]
        assert [name for name, _ in pairs] == names
        assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest()[:16] == digest


class TestHttpFeatures:
    """A provider without token matrices hands the variants the selected
    chunks' own vectors."""

    @pytest.mark.parametrize("k", [2, 4])
    def test_rows_are_the_selected_chunk_vectors_in_rank_order(
        self, monkeypatch, tiny_dataset, embed_server, k
    ):
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        provider = harness.ProviderSpec(kind="http", model="m", dim=4, endpoint=embed_server.url)
        spec = PipelineSpec(provider=provider, k_retrieve=k)
        patient = tiny_dataset.patients[0]
        n_chunks = len(build_chunks(patient, spec.chunk_size, spec.chunk_overlap, "mixed"))
        encoder = PatientEncoder(provider, tiny_dataset, "mixed")
        found = encoder.retrieve(patient, spec.chunk_size, spec.chunk_overlap)
        matrix = encoder.token_matrix(found, k)
        # The server embeds text i of a request as [i, i + 1, ..., i + dim - 1];
        # one request carries the trial's criteria, the next the chunks.
        chunk_vecs = np.arange(4.0) + np.arange(n_chunks)[:, None]
        crit_vecs = np.arange(4.0) + np.arange(len(tiny_dataset.trials[0].criteria))[:, None]

        def cos(a, b):
            return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))

        scores = [sum(cos(c, q) for q in crit_vecs) for c in chunk_vecs]
        ranked = sorted(range(n_chunks), key=lambda i: (-scores[i], i))[:k]
        assert matrix.shape == (min(k, n_chunks), 4)
        assert np.array_equal(matrix, chunk_vecs[ranked])


class FlatTokenProvider(MockProvider):
    """A mock provider whose token rows each hold one value (the row mean of
    the mock token vector): every hidden dimension then has the same profile
    across tokens, so sequence-axis compression has no variance to find."""

    def embed_tokens(self, text: str) -> np.ndarray:
        matrix = super().embed_tokens(text)
        return np.repeat(matrix.mean(axis=1, keepdims=True), matrix.shape[1], axis=1)


def flat_tokens(monkeypatch) -> None:
    """Make every provider a ``FlatTokenProvider`` of its spec's dim and seed."""
    monkeypatch.setattr(
        harness.ProviderSpec,
        "build",
        lambda spec: FlatTokenProvider(dim=spec.dim, seed=spec.seed),
    )


def counted_builds(monkeypatch) -> list:
    """The ``ProviderSpec``s that ``build`` is called on, in call order."""
    built = []
    build = harness.ProviderSpec.build
    monkeypatch.setattr(
        harness.ProviderSpec, "build", lambda spec: built.append(spec) or build(spec)
    )
    return built


class TestFallbackWarning:
    def test_one_warning_per_variant_with_counts(self, tiny_dataset, caplog, monkeypatch):
        flat_tokens(monkeypatch)
        specs = [PipelineSpec(dimred=DimRedConfig(), name=name) for name in ("first", "second")]
        with caplog.at_level(logging.WARNING, logger="trialmatch.harness"):
            features = _feature_pass(specs, tiny_dataset, "mixed")
        assert features.fallbacks == [2, 2]
        warnings = [r.getMessage() for r in caplog.records if "fell back" in r.getMessage()]
        assert len(warnings) == 2
        assert warnings[0] == (
            "variant first: compression fell back to mean pooling for 2 patients; "
            "first: input has zero variance; principal directions are undefined"
        )
        assert warnings[1].startswith("variant second:")


class TestHiddenAxis:
    @pytest.mark.parametrize(
        "pooling, components, width",
        [("mean", None, 128), ("hybrid_last", None, 256), ("pca_mean", 3, 3)],
    )
    def test_features_take_the_pooled_width(self, tiny_dataset, pooling, components, width):
        # The train-split PCA projects these rows later; the pass only pools.
        spec = PipelineSpec(
            dimred=DimRedConfig(axis="hidden", n_components=2),
            pooling=pooling,
            pooling_components=components,
        )
        features = _feature_pass([spec], tiny_dataset, "mixed")
        assert features.X[0].shape == (2, width)
        assert features.skipped == [] and features.fallbacks == [0]


class TestPoolingCompression:
    """Every pooling under no compression, sequence-axis compression and
    hidden-axis compression to 8: a pair that ``PipelineSpec`` admits
    reduces a token matrix to its ``feature_width`` entries, and the two pairs
    whose pooling the sequence axis would ignore are ``ConfigError``s.
    ``pca_mean`` to 3 components builds under hidden-axis compression to 8,
    and only its ``check_width`` fails."""

    DIMREDS = {
        "none": None,
        "sequence": DimRedConfig(),
        "hidden-8": DimRedConfig(axis="hidden", n_components=8),
    }
    ILLEGAL = {("last_token", "sequence"), ("pca_mean", "sequence")}

    @pytest.mark.parametrize("compression", sorted(DIMREDS))
    @pytest.mark.parametrize("pooling", harness.POOLINGS)
    def test_a_pair_is_rejected_or_fills_its_feature_width(self, pooling, compression):
        keys = {
            "pooling": pooling,
            "pooling_components": 3 if pooling == "pca_mean" else None,
            "dimred": self.DIMREDS[compression],
        }
        if (pooling, compression) in self.ILLEGAL:
            with pytest.raises(ConfigError, match="is read by no sequence-axis compression"):
                PipelineSpec(**keys)
            return
        spec = PipelineSpec(**keys)
        matrix = np.random.default_rng(0).standard_normal((12, spec.provider.dim))
        values, error = harness._reduce_matrix(spec, matrix)
        assert error is None
        assert values.shape == (spec.feature_width,)
        if (pooling, compression) == ("pca_mean", "hidden-8"):
            with pytest.raises(
                ConfigError,
                match=r"^variant 'mlp\+dimred': hidden-axis compression to 8 components "
                r"exceeds its feature width \(3 dims\)$",
            ):
                spec.check_width()
        else:
            spec.check_width()


TINY_CORPUS = {"n_trials": 2, "patients_per_trial": 20, "signal_strength": 0.5}


def tiny_task1(tmp_path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(
        {
            "task": "task1",
            "dataset": {"name": "tiny", "synthetic": TINY_CORPUS, "seed": 5},
            "variants": [{"train": {"max_epochs": 5}}],
            "output_dir": str(tmp_path / "out"),
        }
    )


def run_and_write(config: ExperimentConfig, out) -> tuple[bytes, dict]:
    results = run_task(config)
    manifest = write_outputs(results, out, config)
    return (out / "results.csv").read_bytes(), manifest


def task_arms(task: str) -> list[PipelineSpec]:
    """The arms of ``task`` built from the default variant."""
    source = harness.DatasetSource(synthetic=SyntheticConfig(**TINY_CORPUS))
    return harness._variants(ExperimentConfig(task=task, dataset=source))


def no_notes_patient(patient_id: str, trial_id: str) -> PatientRecord:
    """A patient that an unstructured pass skips as ``no_chunks``."""
    return PatientRecord(
        patient_id, trial_id, EligibilityLabel(0, None), (), tiny_patient("X").structured
    )


def feature_pass_dataset() -> Dataset:
    """The tiny corpus plus a patient with no notes, which an unstructured
    pass skips as ``no_chunks``, and one with a prompt shorter than 64
    tokens, which every variant keeps."""
    synthetic = generate_synthetic(SyntheticConfig(**TINY_CORPUS), 5)
    no_notes = no_notes_patient("NO-NOTES", synthetic.trials[0].trial_id)
    return Dataset(
        patients=[*synthetic.patients, no_notes, tiny_patient("SHORT", text="fever")],
        trials=[*synthetic.trials, tiny_trial()],
    )


def feature_set_digest(features: FeatureSet, v: int) -> str:
    """Digest of variant v's features."""
    X = features.X[v]
    h = hashlib.sha256(X.tobytes())
    h.update(features.y.tobytes())
    h.update(
        json.dumps(
            [features.ids, X.shape, X.dtype.str, features.skipped, features.fallbacks[v]]
        ).encode()
    )
    return h.hexdigest()[:16]


class TestFeaturePass:
    # Recorded under one BLAS thread (the root conftest.py holds the session
    # to one), on the corpus of per-trial array draws. The hidden-*
    # variants of task3 pass on mean-pooled rows, so they share the mean-pool
    # digest of task1.
    MEAN, SEQUENCE = "6278e585d5212fb9", "b9f398065d992bcf"
    DIGESTS = {
        "task1": [MEAN, SEQUENCE] * 4,
        "task3": [SEQUENCE, MEAN, MEAN, MEAN, MEAN, "0e14df3cd44aff3b", "bd34188ba5ed7e0d"],
    }

    @pytest.mark.parametrize("task", sorted(DIGESTS))
    def test_feature_sets_match_recorded_digests(self, task):
        specs = task_arms(task)
        dataset = feature_pass_dataset()
        features = _feature_pass(specs, dataset, "unstructured")
        assert [feature_set_digest(features, v) for v in range(len(specs))] == self.DIGESTS[task]

    def test_skips_are_exercised(self):
        specs = task_arms("task3")
        dataset = feature_pass_dataset()
        base = PipelineSpec()
        encoder = PatientEncoder(base.provider, dataset, "unstructured")
        found = encoder.retrieve(dataset.patients[-1], base.chunk_size, base.chunk_overlap)
        assert encoder.token_matrix(found, DEFAULT_K_RETRIEVE).shape[0] < 64
        features = _feature_pass(specs, dataset, "unstructured")
        assert features.skipped == [("NO-NOTES", "no_chunks")]
        assert features.fallbacks == [0] * len(specs)
        assert features.ids[-1] == "SHORT"
        for spec, X in zip(specs, features.X):
            assert X.shape == (41, 256 if spec.name == "hybrid" else 128)

    def test_one_skip_warning_per_pass(self, caplog):
        specs = task_arms("task1")
        with caplog.at_level(logging.WARNING, logger="trialmatch.harness"):
            _feature_pass(specs, feature_pass_dataset(), "unstructured")
        warnings = [r.getMessage() for r in caplog.records if "skipped" in r.getMessage()]
        names = ", ".join(spec.variant_name for spec in specs)
        assert warnings == [f"variants {names} skipped 1 patients: [('NO-NOTES', 'no_chunks')]"]

    def test_a_side_emptied_by_skips_fails_before_any_fit(self, tmp_path, monkeypatch):
        # The target trial's one patient has no notes, so the unstructured
        # pass skips the whole test side (1 of 41 patients).
        synthetic = generate_synthetic(SyntheticConfig(**TINY_CORPUS), 5)
        dataset = Dataset(
            patients=[*synthetic.patients, no_notes_patient("NO-NOTES", "NCT001")],
            trials=[*synthetic.trials, tiny_trial()],
        )
        patients, trials = tmp_path / "p.jsonl", tmp_path / "t.jsonl"
        write_dataset(dataset, patients, trials)
        config = ExperimentConfig.from_dict(
            {
                "task": "task5",
                "datasets": [{"patients_path": str(patients), "trials_path": str(trials)}],
                "modality": "unstructured",
                "split": {"mode": "cross_trial", "target_trial": "NCT001"},
                "variants": [{"train": {"max_epochs": 5}}],
            }
        )
        monkeypatch.setattr(harness, "train_mlp", lambda *a, **k: pytest.fail("a model was fit"))
        with pytest.raises(
            DataError, match="^split leaves an empty train or test side after skips$"
        ):
            run_task(config)

    def test_a_train_side_of_one_class_fails_before_any_fit_naming_its_cell(
        self, tmp_path, monkeypatch
    ):
        # Every patient of SYN001 and SYN002 is eligible, so SYN003's cell at
        # exclusion 1.0, the fifth of six, trains on one class.
        synthetic = generate_synthetic(SyntheticConfig(**{**TINY_CORPUS, "n_trials": 3}), 5)
        patients = [
            p if p.trial_id == "SYN003" else replace(p, label=replace(p.label, value=1))
            for p in synthetic.patients
        ]
        patients_path, trials_path = tmp_path / "p.jsonl", tmp_path / "t.jsonl"
        write_dataset(Dataset(patients, synthetic.trials), patients_path, trials_path)
        config = ExperimentConfig.from_dict(
            {
                "task": "task6",
                "dataset": {"patients_path": str(patients_path), "trials_path": str(trials_path)},
                "exclusions": [1.0, 0.5],
                "variants": [{"train": {"max_epochs": 5}}],
            }
        )
        monkeypatch.setattr(harness, "train_mlp", lambda *a, **k: pytest.fail("a model was fit"))
        with pytest.raises(
            DataError,
            match=r"^trial 'SYN003' at exclusion 1\.0 leaves a train side of one class "
            r"\(label 1\)$",
        ):
            run_task(config)

    def test_a_random_split_of_one_train_class_is_named(self):
        # The train side, patients a and b, holds only label 0.
        y = np.array([0.0, 0.0, 1.0])
        features = FeatureSet(["a", "b", "c"], [np.zeros((3, 2))], y, [], [0], 0.0)
        with pytest.raises(
            DataError, match=r"^the random split leaves a train side of one class \(label 0\)$"
        ):
            harness._cell_rows([PipelineSpec()], features, {"a", "b"}, {"c"}, SplitSpec())

    SKIP_SPECS = [PipelineSpec(name="k4"), PipelineSpec(k_retrieve=2, name="k2")]

    def test_all_skipped_names_every_variant_of_the_pass(self):
        dataset = Dataset(
            patients=[no_notes_patient(f"N{i}", "NCT001") for i in range(2)],
            trials=[tiny_trial()],
        )
        with pytest.raises(DataError, match=r"^variants k4, k2: every patient was skipped$"):
            _feature_pass(self.SKIP_SPECS, dataset, "unstructured")

    def test_too_many_skips_names_every_variant_of_the_pass(self):
        synthetic = generate_synthetic(SyntheticConfig(**TINY_CORPUS), 5)
        trial_id = synthetic.trials[0].trial_id
        dataset = Dataset(
            patients=[*synthetic.patients, *(no_notes_patient(f"N{i}", trial_id) for i in range(3))],
            trials=synthetic.trials,
        )
        with pytest.raises(DataError) as excinfo:
            _feature_pass(self.SKIP_SPECS, dataset, "unstructured")
        assert str(excinfo.value) == "variants k4, k2: 3 of 43 patients skipped (7.0% > 5%)"

    def test_mixed_retrieval_settings_match_single_spec_passes(self, monkeypatch):
        specs = [
            PipelineSpec(),
            PipelineSpec(k_retrieve=2),
            PipelineSpec(dimred=DimRedConfig()),
            PipelineSpec(chunk_size=64),
            PipelineSpec(k_retrieve=2, pooling="last_token"),
        ]
        dataset = feature_pass_dataset()
        singles = [
            feature_set_digest(_feature_pass([spec], dataset, "unstructured"), 0)
            for spec in specs
        ]
        built = counted_builds(monkeypatch)
        features = _feature_pass(specs, dataset, "unstructured")
        assert [feature_set_digest(features, v) for v in range(len(specs))] == singles
        # Two chunkings of one provider: one pass builds it once.
        assert built == [harness.ProviderSpec()]


    def test_a_dataset_builds_each_provider_once(self, monkeypatch):
        # Two chunkings of one provider share its provider and one pass.
        built = counted_builds(monkeypatch)
        train = {"max_epochs": 5}
        config = ExperimentConfig.from_dict(
            {
                "task": "task5",
                "datasets": [{"name": "tiny", "synthetic": TINY_CORPUS, "seed": 5}],
                "variants": [
                    {"name": "long", "train": train},
                    {"name": "short", "chunk_size": 64, "chunk_overlap": 16, "train": train},
                ],
            }
        )
        results = run_task(config)
        assert built == [harness.ProviderSpec()]
        assert len(results) == 2 and len({r.feature_seconds for r in results}) == 1

    def test_task2_backbones_share_one_pass(self, tmp_path):
        results = run_task(ExperimentConfig.from_dict(tiny_config("task2", tmp_path)))
        assert len(results) == 3 and len({r.feature_seconds for r in results}) == 1


class TestTask1Outputs:
    def test_results_csv_is_byte_identical_across_reruns(self, tmp_path):
        config = tiny_task1(tmp_path)
        first, _ = run_and_write(config, tmp_path / "a")
        rerun, _ = run_and_write(config, tmp_path / "b")
        assert first == rerun
        assert len(first.decode().splitlines()) == 1 + 8

    def test_wall_seconds_include_the_shared_feature_pass(self, tmp_path):
        csv_bytes, manifest = run_and_write(tiny_task1(tmp_path), tmp_path)
        runs = manifest["runs"]
        on_disk = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert on_disk["runs"] == runs
        # All eight variants share one feature pass and repeat its time.
        assert len({r["feature_seconds"] for r in runs}) == 1
        assert runs[0]["feature_seconds"] > 0.0
        assert all(r["wall_seconds"] > r["feature_seconds"] for r in runs)
        assert b"seconds" not in csv_bytes


def hand_built_run(trial, exclusion, labels, probs) -> harness.RunResult:
    return harness.RunResult(
        task="task6" if trial else "task1",
        variant="mlp+dimred",
        dataset="tiny",
        trial=trial,
        exclusion=exclusion,
        seed=3,
        config_hash="0123456789abcdef",
        report=compute_report(labels, probs, threshold=0.5),
        wall_seconds=2.5,
        feature_seconds=1.5,
        skipped=0,
        fallbacks=0,
    )


def hand_built_runs() -> list[harness.RunResult]:
    return [
        hand_built_run(None, None, [1, 0, 1, 0], [0.9, 0.5, 0.6, 0.2]),
        hand_built_run("NCT002", 0.8, [1, 0, 0], [0.7, 0.7, 0.1]),
        hand_built_run("NCT002", 1.0, [0, 0, 0], [0.2, 0.6, 0.1]),
    ]


# manifest.json for ``hand_built_runs()`` and no config: the key order and
# the format of each run entry.
RECORDED_MANIFEST = """\
{
  "generator": "trialmatch 0.2.0",
  "config": null,
  "config_hash": null,
  "files": [
    "results.csv",
    "manifest.json"
  ],
  "runs": [
    {
      "task": "task1",
      "variant": "mlp+dimred",
      "dataset": "tiny",
      "trial": null,
      "exclusion": null,
      "seed": 3,
      "config_hash": "0123456789abcdef",
      "skipped": 0,
      "fallbacks": 0,
      "wall_seconds": 2.5,
      "feature_seconds": 1.5,
      "report": {
        "n": 4,
        "n_pos": 2,
        "threshold": 0.5,
        "precision": 0.6666666666666666,
        "recall": 1.0,
        "f1_pos": 0.8,
        "f1_neg": 0.6666666666666666,
        "macro_f1": 0.7333333333333334,
        "auroc": 1.0,
        "auprc": 1.0
      },
      "log_path": null
    },
    {
      "task": "task6",
      "variant": "mlp+dimred",
      "dataset": "tiny",
      "trial": "NCT002",
      "exclusion": 0.8,
      "seed": 3,
      "config_hash": "0123456789abcdef",
      "skipped": 0,
      "fallbacks": 0,
      "wall_seconds": 2.5,
      "feature_seconds": 1.5,
      "report": {
        "n": 3,
        "n_pos": 1,
        "threshold": 0.5,
        "precision": 0.5,
        "recall": 1.0,
        "f1_pos": 0.6666666666666666,
        "f1_neg": 0.6666666666666666,
        "macro_f1": 0.6666666666666666,
        "auroc": 0.75,
        "auprc": 0.5
      },
      "log_path": null
    },
    {
      "task": "task6",
      "variant": "mlp+dimred",
      "dataset": "tiny",
      "trial": "NCT002",
      "exclusion": 1.0,
      "seed": 3,
      "config_hash": "0123456789abcdef",
      "skipped": 0,
      "fallbacks": 0,
      "wall_seconds": 2.5,
      "feature_seconds": 1.5,
      "report": {
        "n": 3,
        "n_pos": 0,
        "threshold": 0.5,
        "precision": 0.0,
        "recall": 0.0,
        "f1_pos": 0.0,
        "f1_neg": 0.8,
        "macro_f1": 0.4,
        "auroc": null,
        "auprc": null
      },
      "log_path": null
    }
  ]
}
"""


class TestWriteOutputs:
    def test_results_csv_matches_recorded_text(self, tmp_path):
        write_outputs(hand_built_runs(), tmp_path)
        assert (tmp_path / "results.csv").read_text(encoding="utf-8") == (
            "task,variant,dataset,trial,exclusion,seed,config_hash,n,n_pos,threshold,"
            "precision,recall,f1_pos,f1_neg,macro_f1,auroc,auprc\n"
            "task1,mlp+dimred,tiny,,,3,0123456789abcdef,4,2,0.5,0.6666666666666666,"
            "1.0,0.8,0.6666666666666666,0.7333333333333334,1.0,1.0\n"
            "task6,mlp+dimred,tiny,NCT002,0.8,3,0123456789abcdef,3,1,0.5,0.5,1.0,"
            "0.6666666666666666,0.6666666666666666,0.6666666666666666,0.75,0.5\n"
            "task6,mlp+dimred,tiny,NCT002,1.0,3,0123456789abcdef,3,0,0.5,0.0,0.0,"
            "0.0,0.8,0.4,,\n"
        )

    def test_manifest_matches_recorded_text(self, tmp_path):
        write_outputs(hand_built_runs(), tmp_path)
        assert (tmp_path / "manifest.json").read_text(encoding="utf-8") == RECORDED_MANIFEST


class TestClassifierDtypes:
    """Every trainer is handed the float64 features; the MLP and its adapter
    come back in float32, the dtype ``classifiers`` fits them in."""

    TRAINERS = ("train_mlp", "train_with_adapter", "train_tree", "train_forest", "train_svm")

    @pytest.mark.parametrize(
        "task, trainers",
        [
            ("task1", {"train_mlp", "train_tree", "train_forest", "train_svm"}),
            ("task4", {"train_mlp", "train_with_adapter"}),
        ],
    )
    def test_every_trainer_is_handed_float64(self, tmp_path, monkeypatch, task, trainers):
        handed: dict[str, set[str]] = {}
        fitted: dict[str, set[str]] = {}
        validated: set[str] = set()

        def recording(name, train):
            def wrapper(features, labels, *args, **kwargs):
                result = train(features, labels, *args, **kwargs)
                handed.setdefault(name, set()).add(features.dtype.name)
                if name in ("train_mlp", "train_with_adapter"):
                    model = result[0]
                    if name == "train_with_adapter":
                        params = [model.adapter, *model.weights, *model.biases]
                    else:
                        params = [*model.weights, *model.biases]
                    fitted.setdefault(name, set()).update(a.dtype.name for a in params)
                    validation = args[1] if len(args) > 1 else kwargs.get("validation")
                    if validation is not None:
                        handed[name].add(validation[0].dtype.name)
                        validated.add(name)
                return result

            return wrapper

        for name in self.TRAINERS:
            monkeypatch.setattr(harness, name, recording(name, getattr(harness, name)))
        run_task(ExperimentConfig.from_dict(tiny_config(task, tmp_path)))
        assert handed == {name: {"float64"} for name in trainers}
        mlps = trainers & {"train_mlp", "train_with_adapter"}
        assert fitted == {name: {"float32"} for name in mlps}
        assert validated == mlps


def write_tiny_datasets(tmp_path) -> list[dict]:
    sources = []
    for seed in (5, 6):
        patients, trials = tmp_path / f"p{seed}.jsonl", tmp_path / f"t{seed}.jsonl"
        write_dataset(generate_synthetic(SyntheticConfig(**TINY_CORPUS), seed), patients, trials)
        sources.append(
            {"name": f"tiny-{seed}", "patients_path": str(patients), "trials_path": str(trials)}
        )
    return sources


def tiny_config(task: str, tmp_path) -> dict:
    obj = {"task": task, "variants": [{"train": {"max_epochs": 5}}]}
    if task == "task5":
        obj["datasets"] = write_tiny_datasets(tmp_path)
    else:
        obj["dataset"] = {"name": "tiny", "synthetic": TINY_CORPUS, "seed": 5}
    return obj


def run_cli(obj: dict, out, capsys) -> tuple[int, bytes]:
    path = out.parent / f"{out.name}.json"
    path.write_text(json.dumps({**obj, "output_dir": str(out)}), encoding="utf-8")
    code = cli.main(["run", "--config", str(path)])
    capsys.readouterr()
    return code, (out / "results.csv").read_bytes()


class TestOtherTasks:
    """task2 (three default mock backbones), task4 (frozen and adapter MLPs,
    with and without compression) and task5 (two datasets, one variant)."""

    CELLS = {"task2": 3, "task4": 4, "task5": 2}

    @pytest.mark.parametrize("task", sorted(CELLS))
    def test_tiny_run(self, tmp_path, capsys, task):
        code, csv_bytes = run_cli(tiny_config(task, tmp_path), tmp_path / "out", capsys)
        assert code == cli.EXIT_OK
        rows = csv_bytes.decode().splitlines()
        header = rows[0].split(",")
        assert len(rows) == 1 + self.CELLS[task]
        aurocs = [float(row.split(",")[header.index("auroc")]) for row in rows[1:]]
        assert all(0.0 <= a <= 1.0 for a in aurocs)
        assert {row.split(",")[0] for row in rows[1:]} == {task}

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        for task in sorted(self.CELLS):
            obj = tiny_config(task, tmp_path)
            _, first = run_cli(obj, tmp_path / f"{task}-a", capsys)
            _, rerun = run_cli(obj, tmp_path / f"{task}-b", capsys)
            assert first == rerun


def no_data(monkeypatch) -> None:
    """Fail the test if anything reads a dataset or encodes a prompt."""

    def no_load(source):
        pytest.fail(f"dataset {source.name!r} was loaded")

    def no_encode(provider, text):
        pytest.fail("a prompt was encoded")

    monkeypatch.setattr(harness.DatasetSource, "load", no_load)
    monkeypatch.setattr(harness, "embed_tokens", no_encode)


class TestConfigChecks:
    """A config that cannot run fails when it is built. Each of these was
    caught only after a dataset was loaded, or not at all."""

    # case -> (task, top-level keys, keys of the variant that breaks, message);
    # task5's second variant breaks, other tasks' only one.
    CASES = {
        "task2-mock-dim-1": (
            "task2",
            {"providers": [{"kind": "mock", "dim": 16}, {"kind": "mock", "dim": 1}]},
            {},
            "mock embedding dim must be at least 2",
        ),
        "task5-overlap": (
            "task5",
            {},
            {"chunk_overlap": 256},
            r"overlap \(256\) must be smaller than chunk_size \(256\)",
        ),
        "task5-pca-mean": (
            "task5",
            {},
            {"pooling": "pca_mean"},
            r"pooling 'pca_mean' requires pooling_components in \[1, 128\], got None",
        ),
        # Each of these loaded; the first three under hashes of their own for
        # features another config computes, the range ones to fail in the pass.
        "task5-last-token-sequence": (
            "task5",
            {},
            {"pooling": "last_token", "dimred": {"axis": "sequence"}},
            "pooling 'last_token' is read by no sequence-axis compression; "
            "it takes 'mean' or 'hybrid_last'",
        ),
        "task5-pca-mean-sequence": (
            "task5",
            {},
            {"pooling": "pca_mean", "pooling_components": 4, "dimred": {"axis": "sequence"}},
            "pooling 'pca_mean' is read by no sequence-axis compression; "
            "it takes 'mean' or 'hybrid_last'",
        ),
        "task5-mean-components": (
            "task5",
            {},
            {"pooling_components": 7},
            "'pooling_components' is read by no mean pooling",
        ),
        **{
            f"task5-pca-mean-{n}": (
                "task5",
                {},
                {"pooling": "pca_mean", "pooling_components": n},
                rf"pooling 'pca_mean' requires pooling_components in \[1, 128\], got {n}",
            )
            for n in (-3, 0, 129)
        },
        "task5-tree-adapter": (
            "task5",
            {},
            {"classifier": "tree", "adapter_mode": "adapter"},
            "'adapter_mode' is read by no tree classifier",
        ),
        "task1-http-dim-0": (
            "task1",
            {},
            {"provider": {"kind": "http", "model": "m", "dim": 0}},
            "provider dim must be positive",
        ),
        "task3-dim-64": (
            "task3",
            {},
            {"provider": {"dim": 64}},
            r"variant 'hidden-128': hidden-axis compression to 128 components "
            r"exceeds its feature width \(64 dims\)",
        ),
        # Widths that no other case reached: pca_mean's components, and
        # hybrid_last's two token rows.
        "task5-pca-mean-hidden": (
            "task5",
            {},
            {
                "pooling": "pca_mean",
                "pooling_components": 4,
                "dimred": {"axis": "hidden", "n_components": 8},
            },
            r"variant 'mlp\+dimred': hidden-axis compression to 8 components "
            r"exceeds its feature width \(4 dims\)",
        ),
        "task5-hybrid-hidden": (
            "task5",
            {},
            {"pooling": "hybrid_last", "dimred": {"axis": "hidden", "n_components": 257}},
            r"variant 'mlp\+dimred': hidden-axis compression to 257 components "
            r"exceeds its feature width \(256 dims\)",
        ),
        # Exclusion 1.5 failed in the first split, 0.0 after the feature pass
        # (an empty test side), and a repeat wrote rows with equal keys.
        "task6-exclusion-1.5": (
            "task6",
            {"exclusions": [1.5]},
            {},
            r"exclusion 1.5 must lie in \(0, 1\]",
        ),
        "task6-exclusion-0": (
            "task6",
            {"exclusions": [1.0, 0.0]},
            {},
            r"exclusion 0.0 must lie in \(0, 1\]",
        ),
        "task6-exclusion-repeated": (
            "task6",
            {"exclusions": [0.4, 1.0, 0.4]},
            {},
            "exclusion 0.4 is repeated; its rows would share keys",
        ),
        # Two datasets that keep the default name wrote rows with equal keys.
        "task5-dataset-names": (
            "task5",
            {"datasets": [{"synthetic": TINY_CORPUS}, {"synthetic": TINY_CORPUS, "seed": 1}]},
            {},
            "dataset name 'dataset' is repeated in 'datasets'; "
            "each task5 dataset needs its own name",
        ),
        # Keys that their kind does not read loaded and were ignored, and
        # split equal backends into separate feature passes.
        "task1-mock-endpoint": (
            "task1",
            {},
            {"provider": {"kind": "mock", "endpoint": "http://127.0.0.1:9"}},
            "'endpoint' is read by no mock provider",
        ),
        "task5-mock-model": (
            "task5",
            {},
            {"provider": {"model": "m"}},
            "'model' is read by no mock provider",
        ),
        "task1-http-seed": (
            "task1",
            {},
            {"provider": {"kind": "http", "model": "m", "seed": 3}},
            "'seed' is read by no http provider",
        ),
        "task2-mock-endpoint": (
            "task2",
            {"providers": [{"kind": "mock"}, {"kind": "mock", "endpoint": "http://127.0.0.1:9"}]},
            {},
            "'endpoint' is read by no mock provider",
        ),
        "task1-synthetic-patients-path": (
            "task1",
            {"dataset": {"synthetic": TINY_CORPUS, "patients_path": "/nonexistent.jsonl"}},
            {},
            "'patients_path' is read by no synthetic dataset source",
        ),
        "task6-synthetic-trials-path": (
            "task6",
            {"dataset": {"synthetic": TINY_CORPUS, "trials_path": "/nonexistent.jsonl"}},
            {},
            "'trials_path' is read by no synthetic dataset source",
        ),
        # A split key that the split's mode does not read loaded, and the run
        # took the mode's own split under a config hash of its own.
        "task1-split-target-trial": (
            "task1",
            {"split": {"target_trial": "SYN001", "exclusion_fraction": 0.3}},
            {},
            "'target_trial' is read by no random split",
        ),
        "task1-split-test-fraction": (
            "task1",
            {"split": {"mode": "cross_trial", "target_trial": "SYN001", "test_fraction": 0.3}},
            {},
            "'test_fraction' is read by no cross_trial split",
        ),
        "task3-paths-seed": (
            "task3",
            {"dataset": {"patients_path": "p.jsonl", "trials_path": "t.jsonl", "seed": 2}},
            {},
            "'seed' is read by no file dataset source",
        ),
        # A negative seed loaded and then failed in numpy with a traceback:
        # the split's and the dataset's after the output directory was made,
        # the variant's after the whole feature pass.
        "task1-split-seed-negative": (
            "task1",
            {"split": {"seed": -1}},
            {},
            "split seed must be non-negative, got -1",
        ),
        "task6-dataset-seed-negative": (
            "task6",
            {"dataset": {"name": "tiny", "synthetic": TINY_CORPUS, "seed": -1}},
            {},
            "dataset seed must be non-negative, got -1",
        ),
        "task5-variant-seed-negative": (
            "task5",
            {},
            {"seed": -1},
            "variant seed must be non-negative, got -1",
        ),
        # Each wrote results rows that the variant column cannot tell apart:
        # equal in every key column, config_hash included, for the first two.
        "task5-variant-repeated": (
            "task5",
            {},
            {},
            "variant name 'mlp' is repeated; each run of a task needs its own name",
        ),
        "task2-provider-repeated": (
            "task2",
            {"providers": [{"kind": "mock"}, {"kind": "mock"}]},
            {},
            "variant name 'backbone-mock' is repeated; each run of a task needs its own name",
        ),
        "task5-name-repeated": (
            "task5",
            {"variants": [{"name": "a", "train": {"max_epochs": 5}}]},
            {"k_retrieve": 2},
            "variant name 'a' is repeated; each run of a task needs its own name",
        ),
        # Every arm of the task sets these keys, so the configured value was
        # dropped and results.csv came out byte-identical without it.
        **{
            f"{task}-{key}": (
                task,
                {},
                {key: value},
                f"'{key}' is read by no {task} run; every arm sets it",
            )
            for task, key, value in (
                ("task1", "classifier", "svm"),
                ("task1", "dimred", {"axis": "hidden", "n_components": 8}),
                ("task1", "name", "mine"),
                ("task2", "classifier", "tree"),
                ("task2", "name", "mine"),
                ("task3", "pooling", "last_token"),
                ("task3", "dimred", {"axis": "hidden", "n_components": 8}),
                ("task3", "name", "mine"),
                ("task4", "classifier", "tree"),
                ("task4", "dimred", {"axis": "hidden", "n_components": 8}),
                ("task4", "adapter_mode", "adapter"),
                ("task4", "name", "mine"),
            )
        },
        "task2-provider": (
            "task2",
            {"providers": [{"kind": "mock", "name": "a"}, {"kind": "mock", "name": "b"}]},
            {"provider": {"dim": 64}},
            "'provider' is read by no task2 run; every arm sets it",
        ),
        # Without 'providers' every arm sets one of TASK2_BACKBONES, so no
        # provider key of the variant is read; the dim case ran its three
        # backbones at dims 64, 32 and 96.
        **{
            f"task2-provider-{case}": (
                "task2",
                {},
                {"provider": provider},
                "'provider' is read by no task2 run; every arm sets it",
            )
            for case, provider in (
                ("http", {"kind": "http", "model": "my-llm", "dim": 128}),
                ("seed-name", {"kind": "mock", "seed": 9, "name": "mine"}),
                ("seed", {"seed": 9}),
                ("dim", {"dim": 64}),
            )
        },
    }

    def test_task2_arms_are_the_backbones_and_keep_a_configured_dimred(self, tmp_path):
        """Without 'providers', task2's arms are ``TASK2_BACKBONES``, each
        with the variant's dimred."""
        obj = tiny_config("task2", tmp_path)
        dimred = {"axis": "hidden", "n_components": 8}
        obj["variants"] = [{"dimred": dimred}]
        specs = harness._variants(ExperimentConfig.from_dict(obj))
        assert [(s.provider.name, s.provider.dim, s.provider.seed) for s in specs] == [
            ("mock-a", 128, 101),
            ("mock-b", 64, 202),
            ("mock-c", 160, 303),
        ]
        assert [s.provider for s in specs] == list(harness.TASK2_BACKBONES)
        assert [s.dimred for s in specs] == [DimRedConfig(**dimred)] * 3

    def config(self, case: str, tmp_path) -> dict:
        task, keys, variant, _ = self.CASES[case]
        obj = {**tiny_config(task, tmp_path), **keys}
        base = obj["variants"][0]
        broken = {**base, **variant}
        obj["variants"] = [base, broken] if task == "task5" else [broken]
        return obj

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rejected_by_config_loading(self, tmp_path, monkeypatch, case):
        no_data(monkeypatch)
        with pytest.raises(ConfigError, match=f"^{self.CASES[case][-1]}$"):
            ExperimentConfig.from_dict(self.config(case, tmp_path))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_run_exits_1_and_creates_no_output_directory(
        self, tmp_path, capsys, monkeypatch, case
    ):
        no_data(monkeypatch)
        path, out = tmp_path / "config.json", tmp_path / "out"
        obj = {**self.config(case, tmp_path), "output_dir": str(out)}
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_USAGE
        assert re.fullmatch(f"error: {self.CASES[case][-1]}\n", capsys.readouterr().err)
        assert not out.exists()


class TestPlan:
    """One plan for every task: dataset x cell x variant, with one feature
    pass per dataset and retrieval setting."""

    @pytest.mark.parametrize("task", harness.TASKS)
    def test_a_missing_source_is_a_config_error(self, task):
        if task == "task5":
            message = "task5 requires dataset paths in 'datasets'"
        else:
            message = f"{task} requires a dataset"
        with pytest.raises(ConfigError) as info:
            ExperimentConfig.from_dict({"task": task})
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "task, key, value",
        [
            ("task1", "providers", [{"kind": "mock", "dim": 64}]),
            ("task6", "providers", [{"kind": "mock", "dim": 64}]),
            ("task3", "datasets", [{"patients_path": "p", "trials_path": "t"}]),
            ("task5", "dataset", {"patients_path": "p", "trials_path": "t"}),
            ("task6", "modality", "structured"),
            ("task6", "split", {"test_fraction": 0.5}),
            ("task6", "split", {"exclusion_fraction": 0.3, "seed": 9}),
            ("task6", "split", {"mode": "cross_trial", "target_trial": "SYN001"}),
        ],
    )
    def test_a_key_no_run_reads_is_a_config_error(
        self, task, key, value, tmp_path, monkeypatch
    ):
        no_data(monkeypatch)
        obj = tiny_config(task, tmp_path)
        obj[key] = value
        message = f"^'{key}' is read by no {task} run"
        if value == {"exclusion_fraction": 0.3, "seed": 9}:
            # A random split reads no exclusion fraction, so the split itself
            # rejects it before the task's check.
            message = "^'exclusion_fraction' is read by no random split$"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(obj)

    def test_task5_variants_with_equal_retrieval_settings_share_a_pass(
        self, tmp_path, monkeypatch
    ):
        loaded: list[str] = []
        encoded: list[str] = []
        load, embed = harness.DatasetSource.load, harness.embed_tokens

        def counting_load(source):
            loaded.append(source.name)
            return load(source)

        def counting_embed(provider, text):
            encoded.append(loaded[-1])
            return embed(provider, text)

        monkeypatch.setattr(harness.DatasetSource, "load", counting_load)
        monkeypatch.setattr(harness, "embed_tokens", counting_embed)
        obj = tiny_config("task5", tmp_path)
        train = {"max_epochs": 5}
        obj["variants"] = [
            {"train": train, "name": "mean"},
            {"train": train, "k_retrieve": 2, "name": "k2"},
            {"train": train, "dimred": {}, "name": "sequence"},
        ]
        _, manifest = run_and_write(ExperimentConfig.from_dict(obj), tmp_path / "out")
        # Two retrieval settings: each of the 40 patients is encoded twice.
        assert loaded == ["tiny-5", "tiny-6"]
        assert Counter(encoded) == {"tiny-5": 2 * 40, "tiny-6": 2 * 40}
        for name in loaded:
            seconds = {
                r["variant"]: r["feature_seconds"]
                for r in manifest["runs"]
                if r["dataset"] == name
            }
            assert seconds["mean"] == seconds["sequence"]


class TestDimRedMemo:
    """Every variant still calls ``dimred``; the memo in it compresses each
    patient's token matrix once."""

    def test_task1_compresses_each_patient_once(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(representation, "_dimred_memo", None, raising=False)
        reduced, compressed = [], []
        apply_dimred, compress = harness.apply_dimred, representation._compress

        def counting_dimred(matrix, cfg):
            reduced.append(matrix.shape)
            return apply_dimred(matrix, cfg)

        def counting_compress(data, n_components):
            compressed.append(data.shape)
            return compress(data, n_components)

        monkeypatch.setattr(harness, "apply_dimred", counting_dimred)
        monkeypatch.setattr(representation, "_compress", counting_compress)
        code, _ = run_cli(tiny_config("task1", tmp_path), tmp_path / "out", capsys)
        assert code == cli.EXIT_OK
        assert len(reduced) == 4 * 40
        assert len(compressed) == 40

    def test_every_compressing_variant_counts_its_own_fallbacks(
        self, tmp_path, capsys, monkeypatch
    ):
        flat_tokens(monkeypatch)
        code, _ = run_cli(tiny_config("task1", tmp_path), tmp_path / "out", capsys)
        assert code == cli.EXIT_OK
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
        assert {r["variant"]: r["fallbacks"] for r in manifest["runs"]} == {
            spec.variant_name: 40 if spec.dimred else 0
            for spec in task_arms("task1")
        }


class TestTask3:
    """The compression sweep: sequence-1, hidden-16/32/64/128 (train-split
    PCA of mean-pooled vectors), last_token and hybrid."""

    CORPUS = {"n_trials": 2, "patients_per_trial": 90, "signal_strength": 0.5}

    def config(self, corpus: dict) -> dict:
        return {
            "task": "task3",
            "dataset": {"name": "t3", "synthetic": corpus, "seed": 5},
            "variants": [{"train": {"max_epochs": 5}}],
        }

    def test_tiny_run_and_rerun(self, tmp_path, capsys):
        obj = self.config(self.CORPUS)
        code, first = run_cli(obj, tmp_path / "a", capsys)
        assert code == cli.EXIT_OK
        rows = first.decode().splitlines()
        header = rows[0].split(",")
        hidden = [f"hidden-{n}" for n in (16, 32, 64, 128)]
        variants = [row.split(",")[1] for row in rows[1:]]
        assert variants == ["sequence-1", *hidden, "last_token", "hybrid"]
        aurocs = [float(row.split(",")[header.index("auroc")]) for row in rows[1:]]
        assert all(0.0 <= a <= 1.0 for a in aurocs)
        _, rerun = run_cli(obj, tmp_path / "b", capsys)
        assert rerun == first

    def test_too_few_train_rows_names_the_variant(self, tmp_path, capsys):
        # 40 patients leave 32 train rows: 16 components fit, 32 do not.
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({**self.config(TINY_CORPUS), "output_dir": str(tmp_path / "out")}),
            encoding="utf-8",
        )
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: variant 'hidden-32': hidden-axis compression to 32 ")
        assert "max 31 for 32 train rows" in err

    def test_components_are_checked_before_any_variant_trains(
        self, tmp_path, capsys, monkeypatch
    ):
        fits = []
        train = harness.train_mlp

        def counting_train(*args, **kwargs):
            fits.append(1)
            return train(*args, **kwargs)

        monkeypatch.setattr(harness, "train_mlp", counting_train)
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({**self.config(TINY_CORPUS), "output_dir": str(tmp_path / "out")}),
            encoding="utf-8",
        )
        assert cli.main(["run", "--config", str(path)]) == cli.EXIT_USAGE
        assert "variant 'hidden-32'" in capsys.readouterr().err
        assert fits == []


# sha256 of results.csv from a tiny run of each task (NumPy 2.4, x86_64): a
# change that keeps every reported number and every config hash keeps these
# bytes. Re-recorded when PipelineSpec dropped its predictor settings, and
# again when it dropped the MLP's step settings and adapter_dim; each time
# only the config_hash column moved. Re-recorded again when the synthetic
# corpus moved to per-trial array draws; then only the metric columns moved.
# task3's was re-recorded when its sequence-axis arms stopped spelling out one
# component; only the config_hash of the sequence-1 and hybrid rows moved.
# task5-ksweep is ``k_sweep_config()``: variants that differ in k only.
# task5-multikey is ``multi_key_config()``: two datasets, four retrieval keys.
RESULTS_DIGESTS = {
    "task1": "2f592d3df6af16ffdab2d8ee04b5d19ba0829d51861343af9a836c800bb6f332",
    "task2": "67500147bc7eb6cb11191fd774c3d735f03438262d34acbb3b4d91a2c8d07eed",
    "task3": "bd0252f35166019d852466ca4aaceac408561df292a041e528915f1910ed7267",
    "task4": "35f85ea79323be98bf079daa85688c2c85d5001ff687c40773d826a8ed6eabb5",
    "task5": "c2d2caea23d606da4b2833ececc60d581eedc44ae9220c8a4f508d682429743e",
    "task6": "6f2a587e25d4a28d9838c48bf92e2f010ba619f09bb391b218f8a1f1a7d95791",
    "task5-ksweep": "00d9ad3235d37ee4f0e92a7bbfc956792ce42c83f53676e395bfb280143ebcec",
    "task5-multikey": "0ec50f5cd04def3e18cd6e7b23b94ea452bdb1acd1a1feb956d8a5ef1f6703f8",
}


@pytest.mark.parametrize("task", RESULTS_DIGESTS)
def test_results_csv_matches_recorded_digest(tmp_path, capsys, task):
    if task == "task3":
        obj = TestTask3().config(TestTask3.CORPUS)
    elif task == "task5-ksweep":
        obj = k_sweep_config()
    elif task == "task5-multikey":
        obj = multi_key_config()
    else:
        obj = tiny_config(task, tmp_path)
    code, csv_bytes = run_cli(obj, tmp_path / "out", capsys)
    assert code == cli.EXIT_OK
    assert hashlib.sha256(csv_bytes).hexdigest() == RESULTS_DIGESTS[task]
